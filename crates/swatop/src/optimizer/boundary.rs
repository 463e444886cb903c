//! Boundary processing (paper Sec. 4.5.3).
//!
//! "Boundary issue occurs when the length of the loop cannot be divided by
//! the split factor, and the boundary data cannot be processed using the
//! original tensorized primitive."
//!
//! Two strategies, both exposed here for the operator lowerings:
//!
//! 1. **Parameter switching** — when the tail is still a legal kernel shape
//!    (mesh-divisible, vector-aligned), the generated code calls the
//!    primitive with the smaller parameters at the boundary
//!    ([`TileSplit::tail`]).
//! 2. **Zero padding** — otherwise the tail is padded up to a legal shape.
//!    Traditional padding copies the *whole* matrix into a freshly padded
//!    buffer; swATOP's *lightweight* scheme copies only the boundary strips
//!    into small auxiliary buffers and switches the DMA source at the
//!    boundary ([`PadPlan`] quantifies both).

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

/// Decomposition of a dimension of length `len` into `full` tiles of
/// `tile` plus a `tail` (possibly zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSplit {
    pub len: usize,
    pub tile: usize,
    pub full: usize,
    pub tail: usize,
}

impl TileSplit {
    pub fn new(len: usize, tile: usize) -> Self {
        assert!(tile > 0);
        TileSplit { len, tile, full: len / tile, tail: len % tile }
    }

    /// Total number of tiles including the tail tile.
    pub fn count(&self) -> usize {
        self.full + (self.tail > 0) as usize
    }
}

/// Cost plan for zero-padding one `rows × cols` matrix whose dimensions are
/// tiled by `(tile_r, tile_c)` with mesh/vector alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PadPlan {
    /// Elements copied by traditional whole-matrix padding.
    pub traditional_copied: usize,
    /// Elements of the traditional padded destination (allocated + zeroed).
    pub traditional_buffer: usize,
    /// Elements copied by lightweight boundary-strip padding.
    pub lightweight_copied: usize,
    /// Elements of the lightweight auxiliary buffers.
    pub lightweight_buffer: usize,
}

impl PadPlan {
    pub fn new(rows: usize, cols: usize, tile_r: usize, tile_c: usize) -> Self {
        let pr = round_up(rows, tile_r);
        let pc = round_up(cols, tile_c);
        let r_tail = rows % tile_r;
        let c_tail = cols % tile_c;
        // Lightweight: a bottom strip (r_tail × padded cols) and a right
        // strip (full rows × c_tail), padded to tile size.
        let bottom = if r_tail > 0 { r_tail * cols } else { 0 };
        let right = if c_tail > 0 { (rows - r_tail) * c_tail } else { 0 };
        let bottom_buf = if r_tail > 0 { tile_r * pc } else { 0 };
        let right_buf = if c_tail > 0 { pr * tile_c } else { 0 };
        PadPlan {
            traditional_copied: rows * cols,
            traditional_buffer: pr * pc,
            lightweight_copied: bottom + right,
            lightweight_buffer: bottom_buf + right_buf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_split_arithmetic() {
        let s = TileSplit::new(200, 64);
        assert_eq!((s.full, s.tail), (3, 8));
        assert_eq!(s.count(), 4);
        let exact = TileSplit::new(256, 64);
        assert_eq!((exact.full, exact.tail), (4, 0));
        assert_eq!(exact.count(), 4);
    }

    #[test]
    fn lightweight_padding_copies_far_less() {
        // 2000×2000 tiled 256×256: boundary strips are thin.
        let p = PadPlan::new(2000, 2000, 256, 256);
        assert!(5 * p.lightweight_copied < p.traditional_copied, "{p:?}");
        assert!(p.lightweight_buffer < p.traditional_buffer);
        assert_eq!(p.traditional_copied, 4_000_000);
    }

    #[test]
    fn aligned_matrix_needs_no_copies() {
        let p = PadPlan::new(2048, 1024, 256, 256);
        assert_eq!(p.lightweight_copied, 0);
        assert_eq!(p.lightweight_buffer, 0);
    }

    #[test]
    fn alignment_constants() {
        assert_eq!(alignment(true), 32);
        assert_eq!(alignment(false), 8);
        assert_eq!(round_up(33, 32), 64);
        assert_eq!(round_up(64, 32), 64);
    }
}
