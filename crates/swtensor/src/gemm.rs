//! Reference GEMM: `C = alpha * A·B + beta * C`.
//!
//! Mirrors the `spm_gemm` CBLAS-like contract of the paper (Sec. 4.1) at the
//! whole-matrix level, including per-operand row/column-major layouts and
//! leading dimensions, so that every layout variant the scheduler emits can
//! be checked against it.

/// Storage order of a matrix operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatLayout {
    RowMajor,
    ColMajor,
}

impl MatLayout {
    /// Linear offset of element (r, c) of an `rows × cols` matrix stored
    /// with leading dimension `ld`.
    #[inline]
    pub fn offset(self, r: usize, c: usize, ld: usize) -> usize {
        match self {
            MatLayout::RowMajor => r * ld + c,
            MatLayout::ColMajor => c * ld + r,
        }
    }

    /// Minimum valid leading dimension for an `rows × cols` matrix.
    #[inline]
    pub fn min_ld(self, rows: usize, cols: usize) -> usize {
        match self {
            MatLayout::RowMajor => cols,
            MatLayout::ColMajor => rows,
        }
    }
}

/// Reference GEMM with explicit layouts and leading dimensions.
///
/// `A` is M×K, `B` is K×N, `C` is M×N. Panics on out-of-range accesses
/// (slices are bound-checked), which catches bad `ld` choices in schedules.
///
/// Every `(i, j)` sums its products in ascending `p` from zero and applies
/// `alpha`/`beta` last. With a row-major `B` the loops run `i-p-j` over one
/// row of accumulators, so the innermost loop walks a row of `B` instead of
/// striding down a column — the same sums in the same order, bit for bit
/// (`gemm_dot` is the per-element form). A column-major `B` is already
/// contiguous along `p` and takes the per-element form.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ref(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    la: MatLayout,
    lda: usize,
    b: &[f32],
    lb: MatLayout,
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    lc: MatLayout,
    ldc: usize,
) {
    if lb != MatLayout::RowMajor {
        return gemm_dot(m, n, k, alpha, a, la, lda, b, lb, ldb, beta, c, lc, ldc);
    }
    let mut acc = vec![0.0f32; n];
    for i in 0..m {
        acc.fill(0.0);
        for p in 0..k {
            let a_ip = a[la.offset(i, p, lda)];
            for (acc_j, &b_pj) in acc.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                *acc_j += a_ip * b_pj;
            }
        }
        for (j, &acc_j) in acc.iter().enumerate() {
            let co = lc.offset(i, j, ldc);
            c[co] = alpha * acc_j + beta * c[co];
        }
    }
}

/// [`gemm_ref`] as one dot product per output element (`i-j-p`), for any
/// layouts: the definition the row-accumulator form must equal exactly.
#[allow(clippy::too_many_arguments)]
fn gemm_dot(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    la: MatLayout,
    lda: usize,
    b: &[f32],
    lb: MatLayout,
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    lc: MatLayout,
    ldc: usize,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[la.offset(i, p, lda)] * b[lb.offset(p, j, ldb)];
            }
            let co = lc.offset(i, j, ldc);
            c[co] = alpha * acc + beta * c[co];
        }
    }
}

/// Convenience: row-major C += A·B with tight leading dimensions.
pub fn gemm_rowmajor(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_ref(
        m,
        n,
        k,
        1.0,
        a,
        MatLayout::RowMajor,
        k,
        b,
        MatLayout::RowMajor,
        n,
        1.0,
        c,
        MatLayout::RowMajor,
        n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::assert_close;
    use crate::init::random_vec;

    #[test]
    fn identity_times_matrix() {
        let n = 4;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b = random_vec(n * n, 3);
        let mut c = vec![0.0; n * n];
        gemm_rowmajor(n, n, n, &a, &b, &mut c);
        assert_close(&c, &b, 1e-6, 1e-6, "I*B");
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_rowmajor(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn layouts_agree() {
        let (m, n, k) = (5, 7, 3);
        let a = random_vec(m * k, 1);
        let b = random_vec(k * n, 2);
        // Column-major copies of a and b.
        let mut a_cm = vec![0.0; m * k];
        for i in 0..m {
            for p in 0..k {
                a_cm[p * m + i] = a[i * k + p];
            }
        }
        let mut b_cm = vec![0.0; k * n];
        for p in 0..k {
            for j in 0..n {
                b_cm[j * k + p] = b[p * n + j];
            }
        }
        let mut c_rm = vec![0.0; m * n];
        let mut c_mixed = vec![0.0; m * n];
        gemm_rowmajor(m, n, k, &a, &b, &mut c_rm);
        gemm_ref(
            m, n, k, 1.0,
            &a_cm, MatLayout::ColMajor, m,
            &b_cm, MatLayout::ColMajor, k,
            0.0,
            &mut c_mixed, MatLayout::RowMajor, n,
        );
        assert_close(&c_rm, &c_mixed, 1e-5, 1e-6, "layout variants");
    }

    #[test]
    fn row_accumulators_equal_the_dot_product_per_element() {
        use MatLayout::{ColMajor, RowMajor};
        // Aligned, unaligned, degenerate; tight and padded leading dimensions.
        let shapes = [(8, 16, 32, 0), (5, 7, 3, 0), (36, 20, 50, 3), (1, 1, 1, 2), (4, 9, 0, 1)];
        for (case, &(m, n, k, pad)) in shapes.iter().enumerate() {
            for (la, lc) in [(RowMajor, RowMajor), (ColMajor, RowMajor), (RowMajor, ColMajor)] {
                let (lda, ldb, ldc) = (la.min_ld(m, k) + pad, n + pad, lc.min_ld(m, n) + pad);
                let a = random_vec(lda * m.max(k), 10 + case as u64);
                let b = random_vec(ldb * k, 20 + case as u64);
                let c0 = random_vec(ldc * m.max(n), 30 + case as u64);
                let (mut got, mut want) = (c0.clone(), c0);
                gemm_ref(m, n, k, 0.75, &a, la, lda, &b, RowMajor, ldb, -0.5, &mut got, lc, ldc);
                gemm_dot(m, n, k, 0.75, &a, la, lda, &b, RowMajor, ldb, -0.5, &mut want, lc, ldc);
                assert!(
                    got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{m}x{n}x{k} pad {pad} {la:?} {lc:?}"
                );
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = [2.0];
        let b = [3.0];
        let mut c = [10.0];
        gemm_ref(
            1, 1, 1, 0.5,
            &a, MatLayout::RowMajor, 1,
            &b, MatLayout::RowMajor, 1,
            2.0,
            &mut c, MatLayout::RowMajor, 1,
        );
        // 0.5*6 + 2*10 = 23
        assert_eq!(c[0], 23.0);
    }

    #[test]
    fn loose_leading_dimension() {
        // A stored with lda=4 but k=2 (padded rows).
        let a = [1.0, 2.0, 9.0, 9.0, 3.0, 4.0, 9.0, 9.0];
        let b = [1.0, 0.0, 0.0, 1.0];
        let mut c = [0.0; 4];
        gemm_ref(
            2, 2, 2, 1.0,
            &a, MatLayout::RowMajor, 4,
            &b, MatLayout::RowMajor, 2,
            0.0,
            &mut c, MatLayout::RowMajor, 2,
        );
        assert_eq!(c, [1.0, 2.0, 3.0, 4.0]);
    }
}
