//! Boundary processing (paper Sec. 4.5.3).
//!
//! "Boundary issue occurs when the length of the loop cannot be divided by
//! the split factor, and the boundary data cannot be processed using the
//! original tensorized primitive."
//!
//! The operator lowerings handle it with two strategies, tiling each
//! dimension through [`crate::ops::tiling::DimTiles`]:
//!
//! 1. **Parameter switching** — when the tail is still a legal kernel shape
//!    (mesh-divisible, vector-aligned), the generated code calls the
//!    primitive with the smaller parameters at the boundary.
//! 2. **Zero padding** — otherwise the tail is padded up to a legal shape.
//!    Traditional padding copies the *whole* matrix into a freshly padded
//!    buffer; swATOP's *lightweight* scheme copies only the boundary strips
//!    into small auxiliary buffers and switches the DMA source at the
//!    boundary ([`crate::ops::tiling::PadMode`] picks one; Fig. 11 measures
//!    both on the real lowerings).
//!
//! This module keeps the alignment arithmetic they share.

/// Alignment a GEMM dimension must satisfy: the 8×8 mesh times, for the
/// vectorised dimension, the vector width 4.
pub fn alignment(vectorised: bool) -> usize {
    if vectorised {
        32
    } else {
        8
    }
}

/// Round `n` up to a multiple of `align`.
pub fn round_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_constants() {
        assert_eq!(alignment(true), 32);
        assert_eq!(alignment(false), 8);
        assert_eq!(round_up(33, 32), 64);
        assert_eq!(round_up(64, 32), 64);
    }
}
