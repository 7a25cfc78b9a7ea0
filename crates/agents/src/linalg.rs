//! Minimal linear algebra for the Gaussian-process surrogate.
//!
//! Only what Bayesian optimization needs: a Cholesky factor of a symmetric
//! positive-definite kernel matrix that grows one observation at a time,
//! and triangular solves against it. The paper notes BO's cubic sample
//! cost (Section 2); growing the factor row by row pays that cube once
//! per history rather than once per proposal.
//!
//! The dense [`dense::Matrix`] factorization it replaced is kept, under
//! `cfg(test)`, as the bit-for-bit oracle.

// Indexed loops here mirror the textbook formulations of the numeric
// kernels; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

/// A lower-triangular Cholesky factor `L` of `A + jitter·I`, packed by
/// rows and grown one row at a time.
///
/// The factorization is row-oriented: row `i` of `L` reads only row `i` of
/// `A` and rows `< i` of `L`, each entry's sum is taken in ascending
/// column order, and a non-positive pivot rejects the row. So pushing the
/// rows of `A` one by one yields, bit for bit, the factor that factoring
/// the whole matrix at once would, and a leading block of `A` has the
/// leading block of that factor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GrowingCholesky {
    /// Row `i` holds `L[i][0..=i]` at offset `i·(i+1)/2`.
    packed: Vec<f64>,
    rows: usize,
}

impl GrowingCholesky {
    /// An empty factor.
    pub fn new() -> Self {
        GrowingCholesky::default()
    }

    /// Number of rows factored so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Drop every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.packed.clear();
        self.rows = 0;
    }

    /// Row `i` of `L`: entries `L[i][0..=i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        let start = i * (i + 1) / 2;
        &self.packed[start..=start + i]
    }

    /// Factor the next row of `A + jitter·I`, given `a_row = A[n][0..=n]`
    /// for the current size `n`.
    ///
    /// Returns `false`, leaving the factor unchanged, if the pivot is not
    /// positive (the grown matrix is not positive definite).
    ///
    /// # Panics
    ///
    /// Panics if `a_row.len() != self.rows() + 1`.
    pub fn push_row(&mut self, a_row: &[f64], jitter: f64) -> bool {
        let i = self.rows;
        assert_eq!(a_row.len(), i + 1, "row {i} needs {} entries", i + 1);
        let start = self.packed.len();
        for j in 0..=i {
            let mut sum = a_row[j];
            if i == j {
                sum += jitter;
            }
            let lj = j * (j + 1) / 2;
            for k in 0..j {
                sum -= self.packed[start + k] * self.packed[lj + k];
            }
            if i == j {
                if sum <= 0.0 {
                    self.packed.truncate(start);
                    return false;
                }
                self.packed.push(sum.sqrt());
            } else {
                let pivot = self.packed[lj + j];
                self.packed.push(sum / pivot);
            }
        }
        self.rows += 1;
        true
    }

    /// Solve `L·x = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut x = vec![0.0; self.rows];
        for i in 0..self.rows {
            let li = self.row(i);
            let mut sum = b[i];
            for k in 0..i {
                sum -= li[k] * x[k];
            }
            x[i] = sum / li[i];
        }
        x
    }

    /// Solve `Lᵀ·x = b` (back substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match.
    pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= self.row(k)[i] * x[k];
            }
            x[i] = sum / self.row(i)[i];
        }
        x
    }

    /// Solve the full system `A·x = b` where `A = L·Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Rows `rows` of `L·X = B`, solved in place for `W` right-hand sides
    /// at once, laid out `[row][column]`, given rows `..rows.start`
    /// already solved: on return `lanes[i][c]` holds `X[i][c]` for each
    /// `i` in `rows`.
    ///
    /// Every column sees exactly the operation sequence of
    /// [`solve_lower`](Self::solve_lower), so each column of `X` is bit-equal
    /// to solving for it alone; the block only lets the `W` independent
    /// columns share each load of `L` and run side by side. Solving `0..a`,
    /// then `a..b`, then `b..n` is, bit for bit, solving `0..n` at once.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() != self.rows()` or `rows` ends past it.
    pub fn solve_lower_lanes_rows<const W: usize>(
        &self,
        lanes: &mut [[f64; W]],
        rows: std::ops::Range<usize>,
    ) {
        assert_eq!(lanes.len(), self.rows, "dimension mismatch");
        assert!(rows.end <= self.rows, "rows {rows:?} out of bounds");
        for i in rows {
            let li = self.row(i);
            let (solved, rest) = lanes.split_at_mut(i);
            let mut acc = rest[0];
            for (l, x) in li[..i].iter().zip(solved.iter()) {
                for c in 0..W {
                    acc[c] -= l * x[c];
                }
            }
            for c in 0..W {
                acc[c] /= li[i];
            }
            rest[0] = acc;
        }
    }
}

/// Euclidean distance squared between two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Dot product.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The dense row-major factorization [`GrowingCholesky`] replaced: the
/// reference its tests, and BO's, compare against bit for bit.
#[cfg(test)]
pub(crate) mod dense {
    /// A dense row-major matrix.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    }

    impl Matrix {
        /// An all-zero `rows × cols` matrix.
        pub fn zeros(rows: usize, cols: usize) -> Self {
            Matrix {
                rows,
                cols,
                data: vec![0.0; rows * cols],
            }
        }

        /// Build from a closure over `(row, col)`.
        pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m.data[r * cols + c] = f(r, c);
                }
            }
            m
        }

        /// The identity matrix of size `n`.
        pub fn identity(n: usize) -> Self {
            Matrix::from_fn(n, n, |r, c| f64::from(r == c))
        }

        /// Number of rows.
        pub fn rows(&self) -> usize {
            self.rows
        }

        /// Element access.
        pub fn get(&self, r: usize, c: usize) -> f64 {
            assert!(
                r < self.rows && c < self.cols,
                "index ({r},{c}) out of bounds"
            );
            self.data[r * self.cols + c]
        }

        /// Element assignment.
        pub fn set(&mut self, r: usize, c: usize, v: f64) {
            assert!(
                r < self.rows && c < self.cols,
                "index ({r},{c}) out of bounds"
            );
            self.data[r * self.cols + c] = v;
        }

        /// Matrix-vector product.
        pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
            assert_eq!(v.len(), self.cols, "dimension mismatch");
            (0..self.rows)
                .map(|r| {
                    (0..self.cols)
                        .map(|c| self.data[r * self.cols + c] * v[c])
                        .sum()
                })
                .collect()
        }

        /// Cholesky factorization `A = L·Lᵀ` of a symmetric
        /// positive-definite matrix, returning lower-triangular `L`, or
        /// `None` at the first non-positive pivot.
        pub fn cholesky(&self) -> Option<Cholesky> {
            assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
            let n = self.rows;
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = self.get(i, j);
                    for k in 0..j {
                        sum -= l.get(i, k) * l.get(j, k);
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return None;
                        }
                        l.set(i, j, sum.sqrt());
                    } else {
                        l.set(i, j, sum / l.get(j, j));
                    }
                }
            }
            Some(Cholesky { l })
        }
    }

    /// A Cholesky factor `L` with triangular solves.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Cholesky {
        l: Matrix,
    }

    impl Cholesky {
        /// The lower-triangular factor.
        pub fn factor(&self) -> &Matrix {
            &self.l
        }

        /// Solve `L·x = b` (forward substitution).
        pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
            let n = self.l.rows();
            assert_eq!(b.len(), n, "dimension mismatch");
            let mut x = vec![0.0; n];
            for i in 0..n {
                let mut sum = b[i];
                for k in 0..i {
                    sum -= self.l.get(i, k) * x[k];
                }
                x[i] = sum / self.l.get(i, i);
            }
            x
        }

        /// Solve `Lᵀ·x = b` (back substitution).
        pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
            let n = self.l.rows();
            assert_eq!(b.len(), n, "dimension mismatch");
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = b[i];
                for k in (i + 1)..n {
                    sum -= self.l.get(k, i) * x[k];
                }
                x[i] = sum / self.l.get(i, i);
            }
            x
        }

        /// Solve the full system `A·x = b` where `A = L·Lᵀ`.
        pub fn solve(&self, b: &[f64]) -> Vec<f64> {
            self.solve_upper(&self.solve_lower(b))
        }

        /// Log-determinant of `A`: `2·Σ log L_ii`.
        pub fn log_det(&self) -> f64 {
            (0..self.l.rows())
                .map(|i| self.l.get(i, i).ln())
                .sum::<f64>()
                * 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dense::Matrix;
    use super::*;
    use proptest::prelude::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // A·Aᵀ + n·I is SPD for any A.
        use rand::Rng;
        let mut rng = archgym_core::seeded_rng(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        Matrix::from_fn(n, n, |i, j| {
            let mut s = 0.0;
            for k in 0..n {
                s += a.get(i, k) * a.get(j, k);
            }
            s + if i == j { n as f64 } else { 0.0 }
        })
    }

    /// Grow a factor from `a`'s lower triangle at `jitter`; `None` at the
    /// first rejected row.
    fn grow(a: &Matrix, jitter: f64) -> Option<GrowingCholesky> {
        let mut chol = GrowingCholesky::new();
        for i in 0..a.rows() {
            let row: Vec<f64> = (0..=i).map(|j| a.get(i, j)).collect();
            if !chol.push_row(&row, jitter) {
                return None;
            }
        }
        Some(chol)
    }

    fn assert_same_factor(grown: &GrowingCholesky, dense: &super::dense::Cholesky) {
        let l = dense.factor();
        assert_eq!(grown.rows(), l.rows());
        for i in 0..l.rows() {
            for j in 0..=i {
                assert_eq!(
                    grown.row(i)[j].to_bits(),
                    l.get(i, j).to_bits(),
                    "L[{i}][{j}] differs"
                );
            }
        }
    }

    #[test]
    fn cholesky_of_identity_is_identity() {
        let chol = Matrix::identity(4).cholesky().unwrap();
        assert_eq!(chol.factor(), &Matrix::identity(4));
        assert_eq!(chol.log_det(), 0.0);
        assert_same_factor(&grow(&Matrix::identity(4), 0.0).unwrap(), &chol);
    }

    #[test]
    fn cholesky_reconstructs_known_matrix() {
        // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, sqrt(2)]]
        let mut chol = GrowingCholesky::new();
        assert!(chol.push_row(&[4.0], 0.0));
        assert!(chol.push_row(&[2.0, 3.0], 0.0));
        assert!((chol.row(0)[0] - 2.0).abs() < 1e-12);
        assert!((chol.row(1)[0] - 1.0).abs() < 1e-12);
        assert!((chol.row(1)[1] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn a_rejected_row_leaves_the_factor_unchanged() {
        let mut chol = GrowingCholesky::new();
        assert!(chol.push_row(&[1.0], 0.0));
        let before = chol.clone();
        // [[1, 1], [1, 1]] is singular: the second pivot is exactly 0.
        assert!(!chol.push_row(&[1.0, 1.0], 0.0));
        assert_eq!(chol, before);
        // A jitter on the diagonal makes it definite.
        assert!(chol.push_row(&[1.0, 1.0], 1e-3));
        assert_eq!(chol.rows(), 2);
        chol.clear();
        assert_eq!(chol.rows(), 0);
        assert!(!chol.push_row(&[-1.0], 0.0));
    }

    #[test]
    fn solve_matches_direct_inverse_on_2x2() {
        let mut chol = GrowingCholesky::new();
        assert!(chol.push_row(&[4.0], 0.0));
        assert!(chol.push_row(&[2.0, 3.0], 0.0));
        let x = chol.solve(&[8.0, 7.0]);
        // Solution of 4x+2y=8, 2x+3y=7 → x=1.25, y=1.5
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_and_dot() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    proptest! {
        #[test]
        fn prop_cholesky_solve_is_inverse(n in 1usize..8, seed in 0u64..200) {
            let a = spd(n, seed);
            let chol = grow(&a, 0.0).expect("SPD by construction");
            let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let x = chol.solve(&b);
            let back = a.mul_vec(&x);
            for (u, v) in back.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-8, "residual too large: {u} vs {v}");
            }
        }

        #[test]
        fn prop_log_det_positive_for_diagonally_dominant(n in 1usize..8, seed in 0u64..100) {
            let a = spd(n, seed);
            let chol = a.cholesky().unwrap();
            // Diagonal entries are ≥ n ≥ 1, so det ≥ 1 and log det ≥ 0 is
            // not guaranteed in general, but it must be finite.
            prop_assert!(chol.log_det().is_finite());
        }

        #[test]
        fn prop_grown_factor_and_solves_match_the_dense_oracle(
            n in 1usize..24,
            seed in 0u64..1_000,
            shift in -2.0f64..2.0,
        ) {
            // Shifting the diagonal down makes some matrices indefinite, so
            // both the accepted and the rejected paths are compared.
            let a = spd(n, seed);
            let a = Matrix::from_fn(n, n, |i, j| a.get(i, j) - if i == j { n as f64 } else { 0.0 });
            let jitter = shift;
            let shifted = Matrix::from_fn(n, n, |i, j| a.get(i, j) + if i == j { jitter } else { 0.0 });
            let (grown, dense) = (grow(&a, jitter), shifted.cholesky());
            prop_assert_eq!(grown.is_some(), dense.is_some());
            if let (Some(grown), Some(dense)) = (grown, dense) {
                assert_same_factor(&grown, &dense);
                let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                prop_assert_eq!(bits(grown.solve_lower(&b)), bits(dense.solve_lower(&b)));
                prop_assert_eq!(bits(grown.solve(&b)), bits(dense.solve(&b)));
                // Every column of a lane block solves like a lone vector.
                let mut lanes: Vec<[f64; 3]> = (0..n)
                    .map(|i| [b[i], (i as f64).cos(), -(i as f64)])
                    .collect();
                let mut chunked = lanes.clone();
                grown.solve_lower_lanes_rows(&mut lanes, 0..n);
                // Row ranges solved one after another, as pruned BO
                // scoring does, give the same block to the bit.
                let mut start = 0;
                for end in [n / 3, n / 2, n] {
                    grown.solve_lower_lanes_rows(&mut chunked, start..end);
                    start = end;
                }
                let block_bits = |b: &[[f64; 3]]| b.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(block_bits(&chunked), block_bits(&lanes));
                for c in 0..3 {
                    let column: Vec<f64> = (0..n)
                        .map(|i| [b[i], (i as f64).cos(), -(i as f64)][c])
                        .collect();
                    let solved: Vec<f64> = lanes.iter().map(|l| l[c]).collect();
                    prop_assert_eq!(bits(solved), bits(dense.solve_lower(&column)));
                }
            }
        }
    }
}
