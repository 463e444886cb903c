//! Block distribution of SPM-resident matrices across the 8×8 CPE mesh.
//!
//! Per the paper's Fig. 12, an `R × C` matrix participating in `spm_gemm`
//! is partitioned uniformly into 8×8 blocks; CPE `(r, c)` owns block
//! `(r, c)`. Global dimensions must therefore be divisible by the mesh side,
//! which the scheduler's validity filter and the boundary-processing pass
//! guarantee before a kernel is ever invoked.

use sw26010::{MachineError, MESH};

/// Per-CPE block dimensions `(rows/8, cols/8)` of a distributed matrix, or
/// an error if the matrix cannot be partitioned.
pub fn block_dims(rows: usize, cols: usize) -> Result<(usize, usize), MachineError> {
    if !rows.is_multiple_of(MESH) || !cols.is_multiple_of(MESH) {
        return Err(MachineError::BadKernelArgs(format!(
            "matrix {rows}×{cols} not divisible by the {MESH}×{MESH} mesh"
        )));
    }
    Ok((rows / MESH, cols / MESH))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_dims_divide() {
        assert_eq!(block_dims(64, 128).unwrap(), (8, 16));
        assert!(block_dims(60, 64).is_err());
        assert!(block_dims(64, 60).is_err());
    }
}
