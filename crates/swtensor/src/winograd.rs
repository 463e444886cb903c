//! Winograd minimal-filtering convolution, F(2×2, 3×3).
//!
//! The Winograd method (paper Fig. 2, middle; Lavin & Gray 2016) computes a
//! 3×3 stride-1 convolution over 4×4 input tiles producing 2×2 output tiles:
//!
//! ```text
//! Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! Batched over channels and tiles, each of the 16 positions of the 4×4
//! transform domain becomes an independent `No × Ni × nTiles` matrix
//! multiplication — "16 multiplications for 3×3 kernels" — which is exactly
//! the batch of GEMMs the swATOP Winograd operator schedules.

use crate::conv::ConvShape;
use crate::gemm::gemm_rowmajor;
use crate::tensor::Tensor;

/// Bᵀ — 4×4 input transform.
pub const BT: [[f32; 4]; 4] = [
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
];

/// G — 4×3 filter transform.
pub const G: [[f32; 3]; 4] = [
    [1.0, 0.0, 0.0],
    [0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5],
    [0.0, 0.0, 1.0],
];

/// Aᵀ — 2×4 output transform.
pub const AT: [[f32; 4]; 2] = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]];

/// Number of transform-domain positions (GEMMs) for F(2×2,3×3).
pub const TILE_POSITIONS: usize = 16;
/// Input tile side.
pub const TILE_IN: usize = 4;
/// Output tile side.
pub const TILE_OUT: usize = 2;

/// Transform one 3×3 filter: `U = G g Gᵀ`, returned as 16 values in
/// row-major 4×4 order.
pub fn filter_transform(g: &[f32; 9]) -> [f32; 16] {
    // tmp = G (4×3) · g (3×3) → 4×3
    let mut tmp = [[0.0f32; 3]; 4];
    for i in 0..4 {
        for j in 0..3 {
            for k in 0..3 {
                tmp[i][j] += G[i][k] * g[k * 3 + j];
            }
        }
    }
    // u = tmp (4×3) · Gᵀ (3×4) → 4×4
    let mut u = [0.0f32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += tmp[i][k] * G[j][k];
            }
            u[i * 4 + j] = acc;
        }
    }
    u
}

/// Transform one 4×4 input tile: `V = Bᵀ d B`.
pub fn input_transform(d: &[f32; 16]) -> [f32; 16] {
    let mut tmp = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                tmp[i][j] += BT[i][k] * d[k * 4 + j];
            }
        }
    }
    let mut v = [0.0f32; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut acc = 0.0;
            for k in 0..4 {
                acc += tmp[i][k] * BT[j][k]; // (Bᵀ)ᵀ = B
            }
            v[i * 4 + j] = acc;
        }
    }
    v
}

/// Inverse-transform one 4×4 element-wise product: `Y = Aᵀ m A` → 2×2.
pub fn output_transform(m: &[f32; 16]) -> [f32; 4] {
    let mut tmp = [[0.0f32; 4]; 2];
    for i in 0..2 {
        for j in 0..4 {
            for k in 0..4 {
                tmp[i][j] += AT[i][k] * m[k * 4 + j];
            }
        }
    }
    let mut y = [0.0f32; 4];
    for i in 0..2 {
        for j in 0..2 {
            let mut acc = 0.0;
            for k in 0..4 {
                acc += tmp[i][k] * AT[j][k];
            }
            y[i * 2 + j] = acc;
        }
    }
    y
}

/// Tile grid for a convolution: number of 2×2 output tiles per image.
pub fn tile_grid(shape: &ConvShape) -> (usize, usize) {
    (shape.ro.div_ceil(TILE_OUT), shape.co.div_ceil(TILE_OUT))
}

/// Total number of tiles across the batch (`nTiles` in the batched GEMMs).
pub fn n_tiles(shape: &ConvShape) -> usize {
    let (tr, tc) = tile_grid(shape);
    shape.b * tr * tc
}

/// Batched filter transform: `U[pos][no][ni]`, row-major `[16][No][Ni]`.
pub fn batched_filter_transform(shape: &ConvShape, weight: &Tensor) -> Tensor {
    assert_eq!(weight.shape(), &shape.weight_shape());
    let pairs = shape.no * shape.ni;
    let mut u = Tensor::zeros([TILE_POSITIONS, shape.no, shape.ni]);
    let u_data = u.data_mut();
    // Filter `no_ni` of the `[No][Ni]` grid lands at `no_ni` of every position.
    for (no_ni, g) in weight.data().chunks_exact(9).enumerate() {
        let t = filter_transform(g.try_into().expect("3×3 filter"));
        for (pos, &val) in t.iter().enumerate() {
            u_data[pos * pairs + no_ni] = val;
        }
    }
    u
}

/// Batched input transform: `V[pos][ni][tile]`, row-major `[16][Ni][nTiles]`.
/// Tiles index as `tile = (b * tilesR + tr) * tilesC + tc`. Edge tiles read
/// virtual zeros outside the (optionally padded) input.
pub fn batched_input_transform(shape: &ConvShape, input: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape());
    assert!(shape.winograd_applicable(), "winograd needs 3×3 stride-1");
    let (tiles_r, tiles_c) = tile_grid(shape);
    let nt = n_tiles(shape);
    let (ri, ci, pad) = (shape.ri(), shape.ci(), shape.pad);
    let mut v = Tensor::zeros([TILE_POSITIONS, shape.ni, nt]);
    let v_data = v.data_mut();
    let planes = input.data().chunks_exact(ri * ci);
    for (b_ni, x) in planes.enumerate() {
        let (b, ni) = (b_ni / shape.ni, b_ni % shape.ni);
        for tr in 0..tiles_r {
            for tc in 0..tiles_c {
                let tile = (b * tiles_r + tr) * tiles_c + tc;
                let mut d = [0.0f32; 16];
                for (i, d_row) in d.chunks_exact_mut(TILE_IN).enumerate() {
                    let Some(r) = (tr * TILE_OUT + i).checked_sub(pad).filter(|&r| r < ri) else {
                        continue;
                    };
                    for (j, dv) in d_row.iter_mut().enumerate() {
                        if let Some(c) = (tc * TILE_OUT + j).checked_sub(pad).filter(|&c| c < ci) {
                            *dv = x[r * ci + c];
                        }
                    }
                }
                let t = input_transform(&d);
                for (pos, &val) in t.iter().enumerate() {
                    v_data[(pos * shape.ni + ni) * nt + tile] = val;
                }
            }
        }
    }
    v
}

/// Inverse-transform the 16 GEMM outputs `M[pos][no][tile]` back into an
/// NCHW output tensor, cropping edge tiles.
pub fn batched_output_transform(shape: &ConvShape, m: &Tensor) -> Tensor {
    let (tiles_r, tiles_c) = tile_grid(shape);
    let nt = n_tiles(shape);
    assert_eq!(m.shape().dims(), &[TILE_POSITIONS, shape.no, nt]);
    let m_data = m.data();
    let mut out = Tensor::zeros(shape.output_shape());
    let planes = out.data_mut().chunks_exact_mut(shape.ro * shape.co);
    for (b_no, y_plane) in planes.enumerate() {
        let (b, no) = (b_no / shape.no, b_no % shape.no);
        for tr in 0..tiles_r {
            for tc in 0..tiles_c {
                let tile = (b * tiles_r + tr) * tiles_c + tc;
                let mut mm = [0.0f32; 16];
                for (pos, mv) in mm.iter_mut().enumerate() {
                    *mv = m_data[(pos * shape.no + no) * nt + tile];
                }
                let y = output_transform(&mm);
                for i in 0..TILE_OUT {
                    for j in 0..TILE_OUT {
                        let ro = tr * TILE_OUT + i;
                        let co = tc * TILE_OUT + j;
                        if ro < shape.ro && co < shape.co {
                            y_plane[ro * shape.co + co] = y[i * 2 + j];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Full Winograd convolution on the host: the golden reference for the
/// swATOP Winograd operator. The 16 transform-domain GEMMs are exactly the
/// batch the machine schedules.
pub fn conv2d_winograd_ref(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    let u = batched_filter_transform(shape, weight);
    let v = batched_input_transform(shape, input);
    let nt = n_tiles(shape);
    let mut m = Tensor::zeros([TILE_POSITIONS, shape.no, nt]);
    let u_sz = shape.no * shape.ni;
    let v_sz = shape.ni * nt;
    let m_sz = shape.no * nt;
    for pos in 0..TILE_POSITIONS {
        gemm_rowmajor(
            shape.no,
            nt,
            shape.ni,
            &u.data()[pos * u_sz..(pos + 1) * u_sz],
            &v.data()[pos * v_sz..(pos + 1) * v_sz],
            &mut m.data_mut()[pos * m_sz..(pos + 1) * m_sz],
        );
    }
    batched_output_transform(shape, &m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::assert_close;
    use crate::conv::conv2d_ref;
    use crate::init::random_tensor;

    #[test]
    fn single_tile_matches_direct() {
        // One 4×4 tile, one channel: compare against direct 3×3 conv.
        let s = ConvShape { b: 1, ni: 1, no: 1, ro: 2, co: 2, kr: 3, kc: 3, stride: 1, pad: 0 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 5);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 6);
        let direct = conv2d_ref(&s, &input, &weight);
        let wino = conv2d_winograd_ref(&s, &input, &weight);
        assert_close(direct.data(), wino.data(), 1e-4, 1e-5, "1-tile winograd");
    }

    #[test]
    fn multi_channel_multi_tile_matches_direct() {
        let s = ConvShape::square(2, 4, 3, 6);
        let input = random_tensor(s.input_shape().dims().to_vec(), 7);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 8);
        let direct = conv2d_ref(&s, &input, &weight);
        let wino = conv2d_winograd_ref(&s, &input, &weight);
        assert_close(direct.data(), wino.data(), 1e-3, 1e-4, "winograd");
    }

    #[test]
    fn odd_output_size_crops_edge_tiles() {
        let s = ConvShape::square(1, 2, 2, 5); // 5 not divisible by 2
        let input = random_tensor(s.input_shape().dims().to_vec(), 9);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 10);
        let direct = conv2d_ref(&s, &input, &weight);
        let wino = conv2d_winograd_ref(&s, &input, &weight);
        assert_close(direct.data(), wino.data(), 1e-3, 1e-4, "odd winograd");
    }

    #[test]
    fn padded_conv_matches_direct() {
        let s = ConvShape { b: 1, ni: 3, no: 2, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 11);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 12);
        let direct = conv2d_ref(&s, &input, &weight);
        let wino = conv2d_winograd_ref(&s, &input, &weight);
        assert_close(direct.data(), wino.data(), 1e-3, 1e-4, "padded winograd");
    }

    #[test]
    fn tile_count() {
        let s = ConvShape::square(3, 1, 1, 7);
        assert_eq!(tile_grid(&s), (4, 4));
        assert_eq!(n_tiles(&s), 48);
    }

    #[test]
    fn filter_transform_of_delta() {
        // A centre-tap delta filter must transform to Bᵀ-consistent values
        // whose winograd conv equals a shift; cheap sanity: constant filter
        // of the identity produces U with u[0] = g[0] for the corner.
        let mut g = [0.0f32; 9];
        g[0] = 1.0;
        let u = filter_transform(&g);
        assert!((u[0] - 1.0).abs() < 1e-6);
    }
}
