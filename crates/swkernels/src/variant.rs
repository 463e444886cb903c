//! The eight GEMM micro-kernel variants.
//!
//! Paper, Appendix: "The GEMM design … has **eight variants** considering
//! the following differences. First, both A and B in SPM can be stored in
//! column-major or row-major layout. Second, the dimension to apply
//! vectorization can be different. Third, vectorization may be achieved
//! along the nested loop dimensions M or N."

use swtensor::MatLayout;

/// Which GEMM loop dimension is vectorised (the `swVecDim` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecDim {
    M,
    N,
}

/// One of the eight hand-scheduled kernel variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmVariant {
    pub a_layout: MatLayout,
    pub b_layout: MatLayout,
    pub vec: VecDim,
}

/// All eight variants, in a stable order (index = 4·a_col + 2·b_col + vecN).
pub const ALL_VARIANTS: [GemmVariant; 8] = {
    use MatLayout::{ColMajor, RowMajor};
    [
        GemmVariant { a_layout: RowMajor, b_layout: RowMajor, vec: VecDim::M },
        GemmVariant { a_layout: RowMajor, b_layout: RowMajor, vec: VecDim::N },
        GemmVariant { a_layout: RowMajor, b_layout: ColMajor, vec: VecDim::M },
        GemmVariant { a_layout: RowMajor, b_layout: ColMajor, vec: VecDim::N },
        GemmVariant { a_layout: ColMajor, b_layout: RowMajor, vec: VecDim::M },
        GemmVariant { a_layout: ColMajor, b_layout: RowMajor, vec: VecDim::N },
        GemmVariant { a_layout: ColMajor, b_layout: ColMajor, vec: VecDim::M },
        GemmVariant { a_layout: ColMajor, b_layout: ColMajor, vec: VecDim::N },
    ]
};

impl GemmVariant {
    /// Stable index 0..8 used as a cache / fit-table key.
    pub fn index(&self) -> usize {
        let a = matches!(self.a_layout, MatLayout::ColMajor) as usize;
        let b = matches!(self.b_layout, MatLayout::ColMajor) as usize;
        let v = matches!(self.vec, VecDim::N) as usize;
        4 * a + 2 * b + v
    }

    /// Whether the vectorised operand can be loaded with the vector-load
    /// broadcast (`vlddr`/`vlddc`, Set 1 of the paper) — possible when the
    /// vectorised dimension is contiguous in that operand's SPM layout.
    /// Otherwise the kernel falls back to scalar-load-extend broadcasts
    /// (`vldder`/`vlddec`, Set 2), which cost one instruction per element
    /// instead of one per 4-vector.
    pub fn vector_load_ok(&self) -> bool {
        match self.vec {
            // Vectorising M: A is accessed down its M column; contiguous iff
            // A is column-major. (C is written along M too, but C stays in
            // registers through the K loop, so A dominates.)
            VecDim::M => matches!(self.a_layout, MatLayout::ColMajor),
            // Vectorising N: B is accessed along its N row; contiguous iff
            // B is row-major.
            VecDim::N => matches!(self.b_layout, MatLayout::RowMajor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_a_bijection() {
        for (i, v) in ALL_VARIANTS.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn vector_load_feasibility() {
        use MatLayout::*;
        let fast = GemmVariant { a_layout: ColMajor, b_layout: RowMajor, vec: VecDim::M };
        assert!(fast.vector_load_ok());
        let slow = GemmVariant { a_layout: RowMajor, b_layout: RowMajor, vec: VecDim::M };
        assert!(!slow.vector_load_ok());
        let fast_n = GemmVariant { a_layout: RowMajor, b_layout: RowMajor, vec: VecDim::N };
        assert!(fast_n.vector_load_ok());
        let slow_n = GemmVariant { a_layout: RowMajor, b_layout: ColMajor, vec: VecDim::N };
        assert!(!slow_n.vector_load_ok());
    }
}
