//! Dense symmetric eigensolver: Householder tridiagonalization (EISPACK
//! `TRED2`) followed by implicit-shift QL on the reduced matrix
//! ([`crate::tridiag`]).
//!
//! The iterative solvers in this crate never need a dense decomposition —
//! this module exists as the *reference oracle*: Lanczos, RQI and the
//! multilevel Fiedler solver are all validated against it on small
//! problems, and it is genuinely useful for users wanting full spectra of
//! small Laplacians.

use crate::tridiag::eigh_tridiag_with_basis;
use crate::{EigenError, Result};

/// A dense symmetric matrix stored row-major (full storage; symmetry is
/// enforced at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSym {
    n: usize,
    a: Vec<f64>,
}

/// Full eigendecomposition of a dense symmetric matrix.
#[derive(Debug, Clone)]
pub struct DenseEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `vectors[j]` is the unit eigenvector of `values[j]`.
    pub vectors: Vec<Vec<f64>>,
}

impl DenseSym {
    /// Builds from a row-major `n x n` slice, checking symmetry to `tol`.
    pub fn new(n: usize, a: Vec<f64>, tol: f64) -> Result<Self> {
        if a.len() != n * n {
            return Err(EigenError::Numerical(format!(
                "dense matrix storage {} != n² = {}",
                a.len(),
                n * n
            )));
        }
        for i in 0..n {
            for j in 0..i {
                let (x, y) = (a[i * n + j], a[j * n + i]);
                if (x - y).abs() > tol * (1.0 + x.abs().max(y.abs())) {
                    return Err(EigenError::Numerical(format!(
                        "matrix not symmetric at ({i},{j}): {x} vs {y}"
                    )));
                }
            }
        }
        Ok(DenseSym { n, a })
    }

    /// Builds from a sparse matrix (densifies; small `n` only).
    pub fn from_csr(m: &sparsemat::CsrMatrix) -> Result<Self> {
        if m.nrows() != m.ncols() {
            return Err(EigenError::Numerical("matrix not square".into()));
        }
        let n = m.nrows();
        let mut a = vec![0.0; n * n];
        for (r, c, v) in m.iter() {
            a[r * n + c] = v;
        }
        DenseSym::new(n, a, 1e-12)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Full eigendecomposition (ascending eigenvalues, orthonormal
    /// eigenvectors). `O(n³)`.
    pub fn eigh(&self) -> Result<DenseEigen> {
        let n = self.n;
        if n == 0 {
            return Ok(DenseEigen {
                values: Vec::new(),
                vectors: Vec::new(),
            });
        }
        // --- Householder reduction to tridiagonal form (TRED2). ---
        // Works on z in place; on exit z holds the accumulated orthogonal
        // transformation Q with A = Q T Qᵀ.
        let mut z = self.a.clone();
        let mut d = vec![0.0f64; n];
        let mut e = vec![0.0f64; n];
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0f64;
            if l > 0 {
                let mut scale = 0.0f64;
                for k in 0..=l {
                    scale += z[i * n + k].abs();
                }
                if scale == 0.0 {
                    e[i] = z[i * n + l];
                } else {
                    for k in 0..=l {
                        z[i * n + k] /= scale;
                        h += z[i * n + k] * z[i * n + k];
                    }
                    let mut f = z[i * n + l];
                    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    z[i * n + l] = f - g;
                    let mut f_acc = 0.0f64;
                    for j in 0..=l {
                        z[j * n + i] = z[i * n + j] / h;
                        let mut g = 0.0f64;
                        for k in 0..=j {
                            g += z[j * n + k] * z[i * n + k];
                        }
                        for k in j + 1..=l {
                            g += z[k * n + j] * z[i * n + k];
                        }
                        e[j] = g / h;
                        f_acc += e[j] * z[i * n + j];
                    }
                    let hh = f_acc / (h + h);
                    for j in 0..=l {
                        f = z[i * n + j];
                        let g = e[j] - hh * f;
                        e[j] = g;
                        for k in 0..=j {
                            z[j * n + k] -= f * e[k] + g * z[i * n + k];
                        }
                    }
                }
            } else {
                e[i] = z[i * n + l];
            }
            d[i] = h;
        }
        d[0] = 0.0;
        e[0] = 0.0;
        for i in 0..n {
            if d[i] != 0.0 {
                // Accumulate the transformation.
                for j in 0..i {
                    let mut g = 0.0f64;
                    for k in 0..i {
                        g += z[i * n + k] * z[k * n + j];
                    }
                    for k in 0..i {
                        z[k * n + j] -= g * z[k * n + i];
                    }
                }
            }
            d[i] = z[i * n + i];
            z[i * n + i] = 1.0;
            for j in 0..i {
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        }
        // e[] currently holds subdiagonal in positions 1..n; shift to the
        // crate convention (e[i] couples i and i+1).
        let e_sub: Vec<f64> = (1..n).map(|i| e[i]).collect();

        // --- Implicit QL with the accumulated basis. ---
        let t = eigh_tridiag_with_basis(&d, &e_sub, z)?;
        Ok(DenseEigen {
            values: t.values,
            vectors: t.vectors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &DenseSym, x: &[f64]) -> Vec<f64> {
        let n = a.n();
        (0..n)
            .map(|i| (0..n).map(|j| a.get(i, j) * x[j]).sum())
            .collect()
    }

    fn check_decomposition(a: &DenseSym, tol: f64) {
        let eig = a.eigh().unwrap();
        let n = a.n();
        // Ascending.
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Residuals, norms, orthogonality.
        for j in 0..n {
            let v = &eig.vectors[j];
            let av = matvec(a, v);
            for i in 0..n {
                assert!(
                    (av[i] - eig.values[j] * v[i]).abs() < tol,
                    "residual at ({i},{j}): {} vs {}",
                    av[i],
                    eig.values[j] * v[i]
                );
            }
            let nrm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((nrm - 1.0).abs() < 1e-10);
            for k in 0..j {
                let dot: f64 = v.iter().zip(&eig.vectors[k]).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < tol, "vectors {j},{k} not orthogonal: {dot}");
            }
        }
        // Trace preserved.
        let tr: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!((tr - sum).abs() < tol * n as f64);
    }

    #[test]
    fn two_by_two_analytic() {
        let a = DenseSym::new(2, vec![2.0, 1.0, 1.0, 2.0], 0.0).unwrap();
        let eig = a.eigh().unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-13);
        assert!((eig.values[1] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseSym::new(3, vec![5.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0], 0.0).unwrap();
        let eig = a.eigh().unwrap();
        assert_eq!(
            eig.values
                .iter()
                .map(|v| v.round() as i64)
                .collect::<Vec<_>>(),
            vec![-1, 2, 5]
        );
    }

    #[test]
    fn rejects_asymmetric() {
        assert!(DenseSym::new(2, vec![1.0, 2.0, 3.0, 4.0], 1e-12).is_err());
    }

    #[test]
    fn rejects_bad_storage() {
        assert!(DenseSym::new(3, vec![0.0; 5], 1e-12).is_err());
    }

    #[test]
    fn pseudo_random_full_matrix() {
        let n = 20;
        let mut a = vec![0.0; n * n];
        let mut state = 0xABCDu64;
        for i in 0..n {
            for j in 0..=i {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f64 / 2f64.powi(31)) * 4.0 - 2.0;
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        let m = DenseSym::new(n, a, 0.0).unwrap();
        check_decomposition(&m, 1e-9);
    }

    #[test]
    fn dense_matches_known_laplacian_spectrum() {
        // Path Laplacian: λ_k = 2 − 2cos(kπ/n).
        let n = 9;
        let g = sparsemat::SymmetricPattern::from_edges(
            n,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
        .unwrap();
        let a = DenseSym::from_csr(&g.laplacian()).unwrap();
        let eig = a.eigh().unwrap();
        for (k, &lam) in eig.values.iter().enumerate() {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / n as f64).cos();
            assert!((lam - exact).abs() < 1e-11, "λ_{k} = {lam} vs {exact}");
        }
    }

    #[test]
    fn dense_cross_validates_lanczos_fiedler() {
        use crate::lanczos::{lanczos_smallest, LanczosOptions};
        use crate::op::{constant_unit_vector, LaplacianOp};
        // A small irregular graph.
        let g = sparsemat::SymmetricPattern::from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (0, 4),
                (2, 9),
                (5, 11),
                (1, 7),
            ],
        )
        .unwrap();
        let dense = DenseSym::from_csr(&g.laplacian()).unwrap();
        let full = dense.eigh().unwrap();
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(12)];
        let lz = lanczos_smallest(
            &lop,
            &deflate,
            1,
            &LanczosOptions::default(),
            &crate::SolverOpts::default(),
        )
        .unwrap();
        // full.values[0] ≈ 0 (constant vector); λ₂ = full.values[1].
        assert!(full.values[0].abs() < 1e-10);
        assert!(
            (lz.values[0] - full.values[1]).abs() < 1e-8,
            "Lanczos λ₂ {} vs dense {}",
            lz.values[0],
            full.values[1]
        );
        // The eigenvectors agree up to sign.
        let dot: f64 = lz.vectors[0]
            .iter()
            .zip(&full.vectors[1])
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot.abs() > 0.999, "cos angle {dot}");
    }

    #[test]
    fn empty_matrix() {
        let a = DenseSym::new(0, vec![], 0.0).unwrap();
        let eig = a.eigh().unwrap();
        assert!(eig.values.is_empty());
    }
}
