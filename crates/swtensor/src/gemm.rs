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

/// Reference GEMM with explicit layouts and leading dimensions — the one
/// host GEMM: the golden references and the functional `spm_gemm` all run
/// it.
///
/// `A` is M×K, `B` is K×N, `C` is M×N. Panics on out-of-range accesses
/// (slices are bound-checked), which catches bad `ld` choices in schedules.
///
/// Every `(i, j)` sums its products in ascending `p` from zero and applies
/// `alpha`/`beta` last. With a row-major `B` the loops run over blocks of
/// four rows of `A`: for each `p` one row of `B` is read once and added,
/// scaled, into four rows of accumulators. The innermost loop walks a row of
/// `B` instead of striding down a column, and each element still sees the
/// same products in the same order, so the result is bit for bit the
/// dot product per element. A column-major `B` is already contiguous along
/// `p` and takes the dot-product form directly.
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
        return;
    }
    if n == 0 {
        return;
    }
    const ROWS: usize = 4;
    let mut acc = vec![0.0f32; ROWS * n];
    for i0 in (0..m).step_by(ROWS) {
        let rows = ROWS.min(m - i0);
        let acc = &mut acc[..rows * n];
        acc.fill(0.0);
        let a_ip = |r: usize, p: usize| a[la.offset(i0 + r, p, lda)];
        if rows == ROWS {
            let (y0, rest) = acc.split_at_mut(n);
            let (y1, rest) = rest.split_at_mut(n);
            let (y2, y3) = rest.split_at_mut(n);
            for p in 0..k {
                let (a0, a1, a2, a3) = (a_ip(0, p), a_ip(1, p), a_ip(2, p), a_ip(3, p));
                let ys = y0.iter_mut().zip(y1.iter_mut()).zip(y2.iter_mut()).zip(y3.iter_mut());
                for ((((y0, y1), y2), y3), &b_pj) in ys.zip(&b[p * ldb..][..n]) {
                    *y0 += a0 * b_pj;
                    *y1 += a1 * b_pj;
                    *y2 += a2 * b_pj;
                    *y3 += a3 * b_pj;
                }
            }
        } else {
            for p in 0..k {
                for (r, y) in acc.chunks_exact_mut(n).enumerate() {
                    let a_rp = a_ip(r, p);
                    for (y, &b_pj) in y.iter_mut().zip(&b[p * ldb..][..n]) {
                        *y += a_rp * b_pj;
                    }
                }
            }
        }
        for (r, acc_r) in acc.chunks_exact(n).enumerate() {
            for (j, &acc_j) in acc_r.iter().enumerate() {
                let co = lc.offset(i0 + r, j, ldc);
                c[co] = alpha * acc_j + beta * c[co];
            }
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
