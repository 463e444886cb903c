//! The host kernels held bit-exact: every golden reference and host-side
//! transform the differential validator runs (DESIGN.md §12.2), and the
//! functional `spm_gemm`, equal a per-element definition `to_bits`.
//!
//! Each definition below addresses every element on its own — through
//! `Tensor::at`, or a matrix layout's `offset` — and sums the same products
//! in the same order as the kernel it pins, starting from zero and applying
//! `alpha`/`beta` last. Rust never fuses a multiply and an add, so a kernel
//! that keeps each element's order keeps its bits, however its loops are
//! arranged; a kernel that reorders a sum, drops a padding zero or reads a
//! neighbouring row fails here on the first element it gets wrong.

use sw26010::{cid, rid, CoreGroup, ExecMode, N_CPE};
use swkernels::spm_gemm::{spm_gemm, SpmMatrix};
use swkernels::VecDim;
use swtensor::conv::{conv2d_ref, ConvShape};
use swtensor::conv_grad::{
    conv2d_backward_data_ref, conv2d_backward_filter_ref, rotated_filter,
};
use swtensor::gemm::{gemm_ref, MatLayout};
use swtensor::im2col::{conv2d_explicit_ref, im2col};
use swtensor::init::{random_tensor, random_vec, XorShift};
use swtensor::winograd::{
    batched_filter_transform, batched_input_transform, batched_output_transform,
    filter_transform, input_transform, n_tiles, output_transform, tile_grid, TILE_IN,
    TILE_OUT, TILE_POSITIONS,
};
use swtensor::Tensor;
use MatLayout::{ColMajor, RowMajor};

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Shapes covering pad 0/1, stride 2, 1×1 kernels, non-square images and
/// kernels, a mesh-aligned shape, stride 2 with padding, and the geometry
/// backward-data runs the forward reference at (pad `K-1-p` = 2).
fn oracle_shapes() -> Vec<ConvShape> {
    let mut rng = XorShift::new(2019);
    let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
    let mut shapes = vec![
        ConvShape { b: 1, ni: 1, no: 1, ro: 1, co: 1, kr: 1, kc: 1, stride: 1, pad: 0 },
        ConvShape { b: 2, ni: 3, no: 4, ro: 7, co: 7, kr: 3, kc: 3, stride: 1, pad: 2 },
        ConvShape { b: 1, ni: 2, no: 2, ro: 5, co: 6, kr: 3, kc: 3, stride: 1, pad: 1 },
        ConvShape::square(2, 8, 8, 8),
        ConvShape { b: 1, ni: 3, no: 2, ro: 4, co: 5, kr: 3, kc: 2, stride: 2, pad: 1 },
    ];
    for _ in 0..24 {
        let (kr, kc) = (pick(1, 3), pick(1, 3));
        shapes.push(ConvShape {
            b: pick(1, 3),
            ni: pick(1, 5),
            no: pick(1, 5),
            ro: pick(2, 6),
            co: pick(2, 6),
            kr,
            kc,
            stride: pick(1, 2),
            // `ri()`/`ci()` must stay positive: pad < kernel extent.
            pad: pick(0, 1).min(kr.min(kc) - 1),
        });
    }
    shapes
}

/// The oracle shapes Winograd F(2×2, 3×3) applies to, plus odd output
/// extents (cropped edge tiles), padding 1 and 2, and batch 1 and 3.
fn winograd_shapes() -> Vec<ConvShape> {
    let mut shapes: Vec<_> =
        oracle_shapes().into_iter().filter(ConvShape::winograd_applicable).collect();
    shapes.extend([
        ConvShape { b: 1, ni: 3, no: 2, ro: 5, co: 7, kr: 3, kc: 3, stride: 1, pad: 1 },
        ConvShape { b: 3, ni: 2, no: 3, ro: 3, co: 4, kr: 3, kc: 3, stride: 1, pad: 0 },
        ConvShape { b: 1, ni: 1, no: 1, ro: 1, co: 1, kr: 3, kc: 3, stride: 1, pad: 1 },
        ConvShape { b: 2, ni: 4, no: 5, ro: 6, co: 5, kr: 3, kc: 3, stride: 1, pad: 2 },
    ]);
    shapes
}

/// Whether input pixel `(o·stride + k - pad)` of an extent `ins` exists.
fn tap(o: usize, k: usize, s: &ConvShape, ins: usize) -> Option<usize> {
    (o * s.stride + k).checked_sub(s.pad).filter(|&x| x < ins)
}

/// `conv2d_ref` one accumulator per output element, summed over
/// `(kr, kc, ni)`.
fn conv2d_ref_at(s: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(s.output_shape());
    for b in 0..s.b {
        for ro in 0..s.ro {
            for co in 0..s.co {
                for kr in 0..s.kr {
                    for kc in 0..s.kc {
                        let (Some(r), Some(c)) = (tap(ro, kr, s, s.ri()), tap(co, kc, s, s.ci()))
                        else {
                            continue;
                        };
                        for no in 0..s.no {
                            let mut acc = out.at(&[b, no, ro, co]);
                            for ni in 0..s.ni {
                                acc += input.at(&[b, ni, r, c]) * weight.at(&[no, ni, kr, kc]);
                            }
                            *out.at_mut(&[b, no, ro, co]) = acc;
                        }
                    }
                }
            }
        }
    }
    out
}

/// `conv2d_backward_filter_ref` one tap at a time, summed over
/// `(b, ro, co)`.
fn conv2d_backward_filter_ref_at(s: &ConvShape, input: &Tensor, d_out: &Tensor) -> Tensor {
    let mut dw = Tensor::zeros(s.weight_shape());
    for no in 0..s.no {
        for ni in 0..s.ni {
            for kr in 0..s.kr {
                for kc in 0..s.kc {
                    let mut acc = 0.0f32;
                    for b in 0..s.b {
                        for ro in 0..s.ro {
                            for co in 0..s.co {
                                let (Some(r), Some(c)) =
                                    (tap(ro, kr, s, s.ri()), tap(co, kc, s, s.ci()))
                                else {
                                    continue;
                                };
                                acc += d_out.at(&[b, no, ro, co]) * input.at(&[b, ni, r, c]);
                            }
                        }
                    }
                    *dw.at_mut(&[no, ni, kr, kc]) = acc;
                }
            }
        }
    }
    dw
}

/// `rotated_filter`: `w'[ni][no][kr][kc] = w[no][ni][Kr-1-kr][Kc-1-kc]`.
fn rotated_filter_at(s: &ConvShape, w: &Tensor) -> Tensor {
    Tensor::from_fn([s.ni, s.no, s.kr, s.kc], |i| {
        w.at(&[i[1], i[0], s.kr - 1 - i[2], s.kc - 1 - i[3]])
    })
}

/// `im2col`: row `(ni, kr, kc)`, column `(b, ro, co)`, zero in the padding.
fn im2col_at(s: &ConvShape, input: &Tensor) -> Tensor {
    let (rows, cols) = (s.ni * s.kr * s.kc, s.b * s.ro * s.co);
    Tensor::from_fn([rows, cols], |i| {
        let (ni, kr, kc) = (i[0] / (s.kr * s.kc), i[0] / s.kc % s.kr, i[0] % s.kc);
        let (b, ro, co) = (i[1] / (s.ro * s.co), i[1] / s.co % s.ro, i[1] % s.co);
        match (tap(ro, kr, s, s.ri()), tap(co, kc, s, s.ci())) {
            (Some(r), Some(c)) => input.at(&[b, ni, r, c]),
            _ => 0.0,
        }
    })
}

/// `gemm_ref` as one dot product per output element, for any layouts.
fn gemm_at(
    (m, n, k): (usize, usize, usize),
    alpha: f32,
    (a, la, lda): (&[f32], MatLayout, usize),
    (b, lb, ldb): (&[f32], MatLayout, usize),
    beta: f32,
    (c, lc, ldc): (&mut [f32], MatLayout, usize),
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

#[test]
fn conv2d_ref_equals_the_at_based_nest() {
    for (i, s) in oracle_shapes().iter().enumerate() {
        let input = random_tensor(s.input_shape(), 100 + i as u64);
        let w = random_tensor(s.weight_shape(), 200 + i as u64);
        let got = conv2d_ref(s, &input, &w);
        assert_eq!(got.shape(), &s.output_shape(), "{s:?}");
        assert_bits(got.data(), conv2d_ref_at(s, &input, &w).data(), &format!("{s:?}"));
    }
}

#[test]
fn backward_filter_equals_the_at_based_nest() {
    for (i, s) in oracle_shapes().iter().enumerate() {
        let x = random_tensor(s.input_shape(), 300 + i as u64);
        let dy = random_tensor(s.output_shape(), 400 + i as u64);
        let got = conv2d_backward_filter_ref(s, &x, &dy);
        assert_eq!(got.shape(), &s.weight_shape(), "{s:?}");
        let want = conv2d_backward_filter_ref_at(s, &x, &dy);
        assert_bits(got.data(), want.data(), &format!("{s:?}"));
    }
}

/// Backward-data is the forward reference on the full-correlation geometry
/// over the rotated filter: both halves are pinned element by element.
#[test]
fn backward_data_equals_the_at_based_nest() {
    let square_stride_1 = oracle_shapes().into_iter().filter(|s| s.stride == 1 && s.kr == s.kc);
    for (i, s) in square_stride_1.enumerate() {
        let w = random_tensor(s.weight_shape(), 500 + i as u64);
        let dy = random_tensor(s.output_shape(), 600 + i as u64);
        let w_rot = rotated_filter(&s, &w);
        assert_bits(w_rot.data(), rotated_filter_at(&s, &w).data(), &format!("rot {s:?}"));
        let grad = ConvShape {
            ni: s.no,
            no: s.ni,
            ro: s.ri(),
            co: s.ci(),
            pad: s.kr - 1 - s.pad,
            ..s
        };
        let want = conv2d_ref_at(&grad, &dy, &rotated_filter_at(&s, &w));
        let got = conv2d_backward_data_ref(&s, &dy, &w);
        assert_bits(got.data(), want.data(), &format!("{s:?}"));
    }
}

#[test]
fn im2col_and_the_explicit_reference_equal_the_at_based_nest() {
    for (i, s) in oracle_shapes().iter().enumerate() {
        let input = random_tensor(s.input_shape(), 700 + i as u64);
        let w = random_tensor(s.weight_shape(), 800 + i as u64);
        let cols = im2col_at(s, &input);
        let got = im2col(s, &input);
        assert_eq!(got.shape(), cols.shape(), "{s:?}");
        assert_bits(got.data(), cols.data(), &format!("im2col {s:?}"));
        // The explicit reference: filter matrix · column matrix, then NCHW.
        let (k, n) = (s.ni * s.kr * s.kc, s.b * s.ro * s.co);
        let mut prod = vec![0.0f32; s.no * n];
        gemm_at(
            (s.no, n, k),
            1.0,
            (w.data(), RowMajor, k),
            (cols.data(), RowMajor, n),
            1.0,
            (&mut prod, RowMajor, n),
        );
        let prod = Tensor::from_vec([s.no, n], prod);
        let want = Tensor::from_fn(s.output_shape(), |i| {
            prod.at(&[i[1], (i[0] * s.ro + i[2]) * s.co + i[3]])
        });
        let got = conv2d_explicit_ref(s, &input, &w);
        assert_bits(got.data(), want.data(), &format!("explicit {s:?}"));
    }
}

#[test]
fn winograd_transforms_equal_the_at_based_nests() {
    for (i, s) in winograd_shapes().iter().enumerate() {
        let (tiles_r, tiles_c) = tile_grid(s);
        let nt = n_tiles(s);
        let tile_of = |t: usize| (t / (tiles_r * tiles_c), t / tiles_c % tiles_r, t % tiles_c);

        let w = random_tensor(s.weight_shape(), 900 + i as u64);
        let want = Tensor::from_fn([TILE_POSITIONS, s.no, s.ni], |i| {
            let g: [f32; 9] = std::array::from_fn(|t| w.at(&[i[1], i[2], t / 3, t % 3]));
            filter_transform(&g)[i[0]]
        });
        let got = batched_filter_transform(s, &w);
        assert_bits(got.data(), want.data(), &format!("filter {s:?}"));

        let x = random_tensor(s.input_shape(), 1000 + i as u64);
        let want = Tensor::from_fn([TILE_POSITIONS, s.ni, nt], |i| {
            let (b, tr, tc) = tile_of(i[2]);
            let d: [f32; 16] = std::array::from_fn(|slot| {
                let (r, c) = (tr * TILE_OUT + slot / TILE_IN, tc * TILE_OUT + slot % TILE_IN);
                match (r.checked_sub(s.pad), c.checked_sub(s.pad)) {
                    (Some(r), Some(c)) if r < s.ri() && c < s.ci() => x.at(&[b, i[1], r, c]),
                    _ => 0.0,
                }
            });
            input_transform(&d)[i[0]]
        });
        let got = batched_input_transform(s, &x);
        assert_bits(got.data(), want.data(), &format!("input {s:?}"));

        let m = random_tensor([TILE_POSITIONS, s.no, nt], 1100 + i as u64);
        let want = Tensor::from_fn(s.output_shape(), |i| {
            let (b, no, ro, co) = (i[0], i[1], i[2], i[3]);
            let tile = (b * tiles_r + ro / TILE_OUT) * tiles_c + co / TILE_OUT;
            let mm: [f32; 16] = std::array::from_fn(|pos| m.at(&[pos, no, tile]));
            output_transform(&mm)[ro % TILE_OUT * TILE_OUT + co % TILE_OUT]
        });
        let got = batched_output_transform(s, &m);
        assert_bits(got.data(), want.data(), &format!("output {s:?}"));
    }
}

/// Every tail of the four-row blocking (m = 1..=9), every layout of every
/// operand, `alpha`/`beta` other than (1, 0) and leading dimensions with and
/// without slack.
#[test]
fn gemm_ref_equals_the_dot_product_per_element() {
    let layouts = [RowMajor, ColMajor];
    let mut seed = 0;
    for m in 1..=9 {
        for (n, k) in [(1, 1), (7, 5), (16, 13), (3, 0)] {
            for la in layouts {
                for lb in layouts {
                    for lc in layouts {
                        for slack in [0, 3] {
                            let lda = la.min_ld(m, k) + slack;
                            let ldb = lb.min_ld(k, n) + slack;
                            let ldc = lc.min_ld(m, n) + slack;
                            seed += 3;
                            let a = random_vec(lda * m.max(k), seed);
                            let b = random_vec(ldb * k.max(n), seed + 1);
                            let c0 = random_vec(ldc * m.max(n), seed + 2);
                            let (mut got, mut want) = (c0.clone(), c0);
                            let c = &mut got;
                            gemm_ref(m, n, k, 0.75, &a, la, lda, &b, lb, ldb, -0.5, c, lc, ldc);
                            gemm_at(
                                (m, n, k),
                                0.75,
                                (&a, la, lda),
                                (&b, lb, ldb),
                                -0.5,
                                (&mut want, lc, ldc),
                            );
                            let what = format!("{m}x{n}x{k} {la:?}/{lb:?}/{lc:?} slack {slack}");
                            assert_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}

/// Write a row-major host matrix into its 64 distributed SPM blocks.
fn load(cg: &mut CoreGroup, mat: SpmMatrix, data: &[f32], rows: usize, cols: usize) {
    let (br, bc) = (rows / 8, cols / 8);
    for cpe in 0..N_CPE {
        let block = cg.spm_mut(cpe).slice_mut(0, mat.offset + mat.ld * br.max(bc)).unwrap();
        for lr in 0..br {
            for lc in 0..bc {
                let x = data[(rid(cpe) * br + lr) * cols + cid(cpe) * bc + lc];
                block[mat.offset + mat.layout.offset(lr, lc, mat.ld)] = x;
            }
        }
    }
}

/// Read a distributed matrix back into a row-major host matrix.
fn read(cg: &CoreGroup, mat: SpmMatrix, rows: usize, cols: usize) -> Vec<f32> {
    let (br, bc) = (rows / 8, cols / 8);
    let mut out = vec![0.0; rows * cols];
    for cpe in 0..N_CPE {
        let block = cg.spm(cpe).slice(0, mat.offset + mat.ld * br.max(bc)).unwrap();
        for lr in 0..br {
            for lc in 0..bc {
                let x = block[mat.offset + mat.layout.offset(lr, lc, mat.ld)];
                out[(rid(cpe) * br + lr) * cols + cid(cpe) * bc + lc] = x;
            }
        }
    }
    out
}

/// The functional `spm_gemm`'s eight variants (A, B layouts × `vd`) on a
/// shape whose per-CPE blocks (12×12, K block 3) are no power of two, with
/// slack in every leading dimension and C in both layouts: the machine's
/// output is the dot-product-per-element GEMM of the whole host matrices.
#[test]
fn functional_spm_gemm_equals_the_dot_product_per_element() {
    let (m, n, k) = (96, 96, 24);
    let (mb, nb, kb) = (m / 8, n / 8, k / 8);
    let (alpha, beta) = (1.5, -0.5);
    let a = random_vec(m * k, 1);
    let b = random_vec(k * n, 2);
    let c0 = random_vec(m * n, 3);
    let mut want = c0.clone();
    gemm_at(
        (m, n, k),
        alpha,
        (&a, RowMajor, k),
        (&b, RowMajor, n),
        beta,
        (&mut want, RowMajor, n),
    );
    for la in [RowMajor, ColMajor] {
        for lb in [RowMajor, ColMajor] {
            for lc in [RowMajor, ColMajor] {
                for vd in [VecDim::M, VecDim::N] {
                    let mut cg = CoreGroup::with_mode(ExecMode::Functional);
                    let a_desc = SpmMatrix::new(5, la, la.min_ld(mb, kb) + 1);
                    let b_desc = SpmMatrix::new(400, lb, lb.min_ld(kb, nb) + 2);
                    let c_desc = SpmMatrix::new(800, lc, lc.min_ld(mb, nb) + 3);
                    load(&mut cg, a_desc, &a, m, k);
                    load(&mut cg, b_desc, &b, k, n);
                    load(&mut cg, c_desc, &c0, m, n);
                    spm_gemm(&mut cg, m, n, k, alpha, a_desc, b_desc, beta, c_desc, vd).unwrap();
                    let what = format!("{la:?}/{lb:?}/{lc:?} {vd:?}");
                    assert_bits(&read(&cg, c_desc, m, n), &want, &what);
                }
            }
        }
    }
}

/// `Tensor::permuted` (the interpreter's `PackTensor`): element `i` of the
/// result is element `i` permuted back of the source, on ranks 1–4 with unit
/// and non-unit innermost strides and a zero-sized axis.
#[test]
fn permuted_equals_the_at_based_copy() {
    let cases: [(&[usize], &[usize]); 7] = [
        (&[5], &[0]),
        (&[7, 3], &[1, 0]),
        (&[7, 3], &[0, 1]),
        (&[2, 3, 4], &[2, 0, 1]),
        (&[4, 5, 3, 2], &[1, 0, 2, 3]),
        (&[4, 5, 3, 2], &[3, 1, 0, 2]),
        (&[3, 0, 2], &[2, 1, 0]),
    ];
    for (seed, (dims, perm)) in cases.into_iter().enumerate() {
        let t = random_tensor(dims.to_vec(), 1200 + seed as u64);
        let want = Tensor::from_fn(t.shape().permute(perm), |i| {
            let mut src = vec![0; i.len()];
            for (d, &p) in perm.iter().enumerate() {
                src[p] = i[d];
            }
            t.at(&src)
        });
        let got = t.permuted(perm);
        assert_eq!(got.shape(), want.shape(), "{dims:?} {perm:?}");
        assert_bits(got.data(), want.data(), &format!("{dims:?} {perm:?}"));
    }
}
