//! Floating-point comparison helpers for validating generated code against
//! the golden references.

/// Maximum absolute difference between two equally-long slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// Relative-tolerance closeness check: |a-b| ≤ atol + rtol·max(|a|,|b|)
/// element-wise. Convolutions accumulate thousands of products, so the
/// default tolerances are loose enough for reassociated summation orders
/// (Winograd, blocked GEMM) yet tight enough to catch any indexing bug.
pub fn allclose(a: &[f32], b: &[f32], rtol: f32, atol: f32) -> bool {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(x, y)| (x - y).abs() <= atol + rtol * x.abs().max(y.abs()))
}

/// Panic with a diagnostic if slices differ beyond tolerance. Reports the
/// first offending index, which usually pinpoints the broken loop bound.
pub fn assert_close(a: &[f32], b: &[f32], rtol: f32, atol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch {} vs {}", a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let tol = atol + rtol * x.abs().max(y.abs());
        assert!(
            (x - y).abs() <= tol,
            "{what}: mismatch at index {i}: {x} vs {y} (tol {tol}, max diff {})",
            max_abs_diff(a, b)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_slices_close() {
        let a = [1.0, 2.0, 3.0];
        assert!(allclose(&a, &a, 1e-4, 1e-4));
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn detects_differences() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.0];
        assert!(!allclose(&a, &b, 1e-4, 1e-4));
        assert_eq!(max_abs_diff(&a, &b), 0.5);
    }

    #[test]
    fn relative_tolerance_scales() {
        let a = [1_000_000.0f32];
        let b = [1_000_050.0f32];
        assert!(allclose(&a, &b, 1e-4, 0.0));
        assert!(!allclose(&a, &b, 1e-6, 0.0));
    }

    #[test]
    #[should_panic(expected = "mismatch at index 1")]
    fn assert_close_reports_index() {
        assert_close(&[1.0, 2.0], &[1.0, 9.0], 1e-4, 1e-4, "t");
    }
}
