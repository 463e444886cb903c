//! IR statement nodes.

use std::ops::Range;

use sw26010::regcomm::BcastBus;
use sw26010::{cid, rid, Cycles, DmaDirection, ELEM_BYTES, MESH, N_CPE, SPM_BYTES};
use swkernels::VecDim;
use swtensor::winograd::{n_tiles, tile_grid};
use swtensor::{ConvShape, MatLayout};

use crate::expr::{AVar, AffineExpr, Cond, Env, VarId};

/// Index of an SPM buffer in the program's SPM table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpmBufId(pub usize);

/// Index of a main-memory buffer in the program's buffer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemBufId(pub usize);

/// Index of a reply word in the program's reply table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplyId(pub usize);

/// An SPM buffer reference, possibly double-buffered.
///
/// `Double` is what the auto-prefetch pass produces: the buffer actually
/// used is `even` when `sel` evaluates to an even number, `odd` otherwise.
/// `sel` is typically the linearised iteration index of the prefetched loop
/// nest — an affine expression, so the selection is resolvable both by the
/// interpreter and by the C code generator.
#[derive(Debug, Clone, PartialEq)]
pub enum SpmSlot {
    Single(SpmBufId),
    Double { even: SpmBufId, odd: SpmBufId, sel: AffineExpr },
}

impl SpmSlot {
    pub fn single(id: SpmBufId) -> Self {
        SpmSlot::Single(id)
    }

    /// All buffer ids this slot can refer to.
    pub fn bufs(&self) -> Vec<SpmBufId> {
        match self {
            SpmSlot::Single(b) => vec![*b],
            SpmSlot::Double { even, odd, .. } => vec![*even, *odd],
        }
    }
}

/// A GEMM operand: an SPM slot interpreted as a distributed matrix block
/// with a layout and leading dimension (per-CPE).
#[derive(Debug, Clone, PartialEq)]
pub struct MatDesc {
    pub slot: SpmSlot,
    pub layout: MatLayout,
    pub ld: usize,
    /// Per-CPE element offset of the block's origin within the slot. Zero
    /// for whole-buffer operands; nonzero when the operand is a sub-block of
    /// a larger SPM-resident panel (resident-reuse schedules index the k-th
    /// `t_k`-slice of a resident A/B panel this way).
    pub offset: usize,
}

impl MatDesc {
    /// Operand covering a whole slot (offset 0).
    pub fn new(slot: SpmSlot, layout: MatLayout, ld: usize) -> Self {
        MatDesc { slot, layout, ld, offset: 0 }
    }
}

/// Core-group-level DMA node (`DMA_CG`): move a `rows × cols` sub-matrix
/// whose element `(i, j)` lives at `offset + i·row_stride + j` in main
/// memory. This is the form DSL lowering produces; DMA inference rewrites
/// it into [`DmaCpe`].
#[derive(Debug, Clone, PartialEq)]
pub struct DmaCg {
    pub buf: MemBufId,
    /// Element offset of the tile origin within `buf` (no rid/cid terms).
    pub offset: AffineExpr,
    pub rows: usize,
    pub cols: usize,
    /// Main-memory distance between consecutive tile rows, in elements.
    pub row_stride: usize,
    /// Mesh mapping: normally CPE `(r, c)` takes block `(r, c)` of the
    /// tile; with `mesh_swap` it takes block `(c, r)`. Used when the tile
    /// is a *transposed* view of the distributed matrix (column-major SPM
    /// layouts fetched from a pre-packed `Xᵀ` buffer), so the block still
    /// lands on the CPE that owns it in the GEMM distribution.
    pub mesh_swap: bool,
    pub direction: DmaDirection,
    pub spm: SpmSlot,
    pub reply: ReplyId,
}

/// Per-CPE strided DMA node (`DMA_CPE`), the executable form: CPE
/// `(rid, cid)` transfers `n_blocks` blocks of `block` elements, `stride`
/// apart, starting at `offset` (which references `rid`/`cid`).
#[derive(Debug, Clone, PartialEq)]
pub struct DmaCpe {
    pub buf: MemBufId,
    /// Per-CPE element offset within `buf`; references `Rid`/`Cid`.
    pub offset: AffineExpr,
    pub block: usize,
    pub stride: usize,
    pub n_blocks: usize,
    pub direction: DmaDirection,
    pub spm: SpmSlot,
    pub reply: ReplyId,
    /// Broadcast tiling: when set, only the leader CPE of each mesh row
    /// (`BcastBus::Row`, leaders `(r, 0)`) or column (`BcastBus::Column`,
    /// leaders `(0, c)`) moves the whole line's blocks to or from DRAM, and
    /// the register-communication bus carries them between the leader and
    /// its peers: a get's leader scatters what it fetched, a put's leader
    /// gathers what it writes. Valid only when the 8 per-CPE blocks of a
    /// line are contiguous (the bcast-axis mesh coefficient of `offset`
    /// equals `block`).
    pub bcast: Option<BcastBus>,
    /// Batch fusion: this transfer is issued back-to-back with the
    /// immediately preceding DMA node (no wait or compute in between), so
    /// its descriptors chain onto the engine's in-flight batch and the
    /// per-batch start-up latency is amortised away. Set by the optimizer's
    /// get-fusion pass; never set on the first node of a run.
    pub fused: bool,
}

impl DmaCpe {
    /// Elements landing in (or read from) each CPE's SPM.
    pub fn spm_elems(&self) -> usize {
        self.block * self.n_blocks
    }

    /// The DRAM side of one execution of the node; see [`DmaShape`].
    pub fn shape(&self) -> DmaShape {
        self.shape_on(self.bcast)
    }

    /// [`DmaCpe::shape`] of the node as if its `bcast` were `bus`: what the
    /// analytic model prices for a node that broadcast tagging would mark.
    pub fn shape_on(&self, bus: Option<BcastBus>) -> DmaShape {
        // A broadcast leader moves its line's eight contiguous blocks as
        // one: 8 requests of 8× the block instead of 64 of the block.
        let (requests, cpe_step, block, regcomm) = match bus {
            None => (N_CPE, 1, self.block, None),
            Some(bus) => {
                let cpe_step = match bus {
                    BcastBus::Row => MESH,
                    BcastBus::Column => 1,
                };
                let regcomm = sw26010::regcomm::dma_scatter_cycles(self.spm_elems());
                (MESH, cpe_step, self.block * MESH, Some(regcomm))
            }
        };
        DmaShape {
            requests,
            block,
            blocks: requests * self.n_blocks,
            span: self.n_blocks.saturating_sub(1) * self.stride + block,
            payload_bytes: requests * block * self.n_blocks * ELEM_BYTES,
            regcomm,
            cpe_step,
            mesh_coeffs: (self.offset.coeff(AVar::Rid), self.offset.coeff(AVar::Cid)),
        }
    }
}

/// Which CPEs ask the DMA engine for what when a [`DmaCpe`] node executes:
/// every CPE for its own blocks, or — under broadcast tiling — the leader of
/// each mesh row (column) for its whole line. The one definition behind the
/// interpreter's bounds checks, its cost-only price table and its functional
/// request builder, and the analytic model's Eq. (1) term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaShape {
    /// Requests in the batch: 64, or a broadcast's 8.
    pub requests: usize,
    /// Elements per block of one request.
    pub block: usize,
    /// Blocks of all requests together.
    pub blocks: usize,
    /// Elements from a request's first to one past its last.
    pub span: usize,
    /// Bytes the batch delivers (the same with and without broadcast).
    pub payload_bytes: usize,
    /// Broadcast only: cycles of the leaders' register-bus phase — a get's
    /// scatter after the transfer, a put's gather before it — which the
    /// completion waits for.
    pub regcomm: Option<Cycles>,
    /// Request `i` is issued by CPE `i * cpe_step`.
    cpe_step: usize,
    /// `rid` and `cid` coefficients of the node's offset.
    mesh_coeffs: (i64, i64),
}

impl DmaShape {
    /// Linear ids of the requesting CPEs, in issue order.
    pub fn requesters(&self) -> impl Iterator<Item = usize> {
        let step = self.cpe_step;
        (0..self.requests).map(move |i| i * step)
    }

    /// Where each request starts, in elements after CPE (0, 0)'s offset
    /// (negative: before it), in issue order.
    pub fn relative_starts(&self) -> impl Iterator<Item = i64> {
        let (c_r, c_c) = self.mesh_coeffs;
        self.requesters().map(move |cpe| c_r * rid(cpe) as i64 + c_c * cid(cpe) as i64)
    }
}

/// A tensorized GEMM primitive call: `C = alpha·A·B + beta·C` on
/// SPM-distributed operands.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmOp {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub alpha: f32,
    pub beta: f32,
    pub a: MatDesc,
    pub b: MatDesc,
    pub c: MatDesc,
    pub vd: VecDim,
    /// The call's step in a looped reduction over its output tile: where it
    /// evaluates to 0 the call starts the tile and overwrites C (β = 0), so
    /// nothing fetches the accumulator first. `None`: `beta` always holds.
    /// It never prices anything.
    pub k_step: Option<AffineExpr>,
}

impl GemmOp {
    pub fn flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) * (self.k as u64)
    }

    /// The β this execution applies under `env`.
    pub fn beta_at(&self, env: &Env) -> f32 {
        match &self.k_step {
            Some(step) if step.eval(env, 0, 0) == 0 => 0.0,
            _ => self.beta,
        }
    }
}

/// Bulk host-side transforms: layout packing, operator-specific expansions
/// and boundary padding. Executed as bandwidth-costed block operations.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformOp {
    pub kind: TransformKind,
    /// Chain fusion: this transform runs back-to-back with the immediately
    /// preceding transform, so its block stream chains onto the engine's
    /// open pipeline and the per-transform start-up latency is amortised
    /// away. Set by the optimizer's transform-fusion pass; never set on the
    /// first transform of a run.
    pub fused: bool,
    /// Producer fusion: whether this transform's output is materialised in
    /// main memory ([`Link::Alone`]) or streams straight into the later
    /// transforms that read it ([`Link::Feeds`], [`Link::Ends`]).
    pub link: Link,
}

impl TransformOp {
    /// A transform that runs on its own: unfused, its output materialised.
    pub fn new(kind: TransformKind) -> Self {
        TransformOp { kind, fused: false, link: Link::Alone }
    }
}

/// Where a transform sits in a chain of bulk transforms that runs as one
/// pass over main memory. Set by the optimizer's producer-fusion pass
/// (`optimizer::chains`); every link stays its own statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Link {
    /// Reads its source from main memory and writes all of its output there.
    #[default]
    Alone,
    /// A producer fused into the `readers` later transforms that read its
    /// output: the output is never materialised (its address range is never
    /// written), each reader recomputes it from this link's own source, and
    /// the link itself costs nothing.
    Feeds { readers: u32 },
    /// The last link of a chain: it reads a [`Link::Feeds`] link's output
    /// and is priced as one pass over the whole chain — `reads` elements of
    /// the chain's first source (the first link's reads, scaled by each
    /// later link's reads over its predecessor's writes, that ratio capped
    /// at one where the predecessor's output fits the scratch pads; rounded
    /// up), its own writes, and the `compute` of every link together (in
    /// cycles).
    Ends { reads: u64, compute: u32 },
    /// A reader of a [`Link::Feeds`] link's output that runs in one pass
    /// with the readers standing right after it (a sibling run): its output
    /// is materialised, and it costs nothing where it stands.
    Joins,
    /// The last reader of a sibling run, priced as the run's one pass: it
    /// reads `reads` elements of the chain's first source once (the
    /// readers' reads together, capped at the producer's), writes `writes`
    /// elements (every reader's output) and spends `compute` cycles (the
    /// producer's once, plus every reader's).
    Closes { reads: u64, writes: u64, compute: u32 },
}

impl Link {
    /// Whether this link's output is never materialised.
    pub fn feeds(self) -> bool {
        matches!(self, Link::Feeds { .. })
    }

    /// Whether this link reads a [`Link::Feeds`] link's output.
    pub fn fed(self) -> bool {
        matches!(self, Link::Ends { .. } | Link::Joins | Link::Closes { .. })
    }

    /// Whether this link pays for a pass where it stands: not a producer,
    /// whose readers pay, nor a sibling run's member, whose last reader
    /// pays.
    pub fn pays(self) -> bool {
        !matches!(self, Link::Feeds { .. } | Link::Joins)
    }
}

/// The transform vocabulary. Buffer dimensions are tracked in the program's
/// buffer table; kinds carry the semantic parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformKind {
    /// im2col expansion of an NCHW input into the `(Ni·Kr·Kc) × (B·Ro·Co)`
    /// column matrix (explicit-GEMM convolution, Fig. 2 left). It reads its
    /// input in [`RowBands`].
    Im2col { shape: ConvShape, src: MemBufId, dst: MemBufId },
    /// Materialise spatial zero padding: NCHW input → padded NCHW copy
    /// (`ri + 2·pad` × `ci + 2·pad`), so downstream tiling sees `pad = 0`.
    PadImageNchw { shape: ConvShape, src: MemBufId, dst: MemBufId },
    /// Winograd filter transform `[No][Ni][3][3] → [16][No][Ni]`
    /// (or `[16][Ni][No]` when `transposed` — the column-major layout).
    WinogradFilter { shape: ConvShape, src: MemBufId, dst: MemBufId, transposed: bool },
    /// Winograd input transform NCHW → `[16][Ni][nt_pad]`: the tile axis is
    /// zero-padded to `nt_pad` at generation time so the batched GEMMs see
    /// an aligned N dimension. It reads its input in [`RowBands`].
    WinogradInput { shape: ConvShape, src: MemBufId, dst: MemBufId, nt_pad: usize },
    /// Winograd inverse output transform `[16][No][nt_pad]` → NCHW.
    WinogradOutput { shape: ConvShape, src: MemBufId, dst: MemBufId, nt_pad: usize },
    /// Materialised dimension permutation of a dense tensor
    /// (layout transformation): `dst = permute(src, perm)`.
    PackTensor { src: MemBufId, dst: MemBufId, src_dims: Vec<usize>, perm: Vec<usize> },
    /// Rotate a filter 180° spatially and swap its channel axes:
    /// `dst[ni][no][kr][kc] = src[no][ni][Kr-1-kr][Kc-1-kc]` — the weight
    /// transform of backward-data convolution.
    RotateFilter { shape: ConvShape, src: MemBufId, dst: MemBufId },
    /// Copy sub-matrix `src[r0.., c0..]` (clipped to `take_rows×take_cols`)
    /// into the top-left of `dst` (`dst_rows × dst_cols`, row-major),
    /// zeroing the remainder — the padding primitive. `zero_first` decides
    /// whether the whole destination is cleared (aux buffers are reused).
    PadSubmatrix {
        src: MemBufId,
        src_rows: usize,
        src_cols: usize,
        r0: usize,
        c0: usize,
        take_rows: usize,
        take_cols: usize,
        dst: MemBufId,
        dst_rows: usize,
        dst_cols: usize,
        zero_first: bool,
    },
    /// Copy the top-left `take_rows × take_cols` of `src` into
    /// `dst[r0.., c0..]` — the un-padding primitive for outputs.
    UnpadSubmatrix {
        src: MemBufId,
        src_rows: usize,
        src_cols: usize,
        dst: MemBufId,
        dst_rows: usize,
        dst_cols: usize,
        r0: usize,
        c0: usize,
        take_rows: usize,
        take_cols: usize,
    },
    /// Transaction coalescing: move the strided per-CPE tiles of a
    /// loop-nest's `DmaCg` between their buffer and a packed staging
    /// buffer laid out `[iteration][cpe][block]`, so the replacement
    /// per-CPE DMA is a single fully contiguous block per CPE per step.
    /// `direction` is the replaced DMA's: a get's tiles are gathered from
    /// `src` into the packed `dst` before its nest (`MemToSpm`), a put's
    /// are scattered from the packed `src` into `dst` after it
    /// (`SpmToMem`), the inverse walk. `base` is the constant term of the
    /// strided buffer's tile-origin offset and `iters` the `(extent,
    /// coefficient)` pairs of the loop variables it depends on, outermost
    /// first — together they enumerate every tile the nest moves.
    /// `rows`/`cols`/`row_stride`/`mesh_swap` mirror the replaced `DmaCg`.
    PackTiles {
        src: MemBufId,
        dst: MemBufId,
        rows: usize,
        cols: usize,
        row_stride: usize,
        mesh_swap: bool,
        direction: DmaDirection,
        base: i64,
        iters: Vec<(usize, i64)>,
    },
}

impl TransformKind {
    /// The source buffer, the one buffer every kind reads.
    pub fn src(&self) -> MemBufId {
        match self {
            TransformKind::Im2col { src, .. }
            | TransformKind::PadImageNchw { src, .. }
            | TransformKind::WinogradFilter { src, .. }
            | TransformKind::WinogradInput { src, .. }
            | TransformKind::WinogradOutput { src, .. }
            | TransformKind::PackTensor { src, .. }
            | TransformKind::RotateFilter { src, .. }
            | TransformKind::PadSubmatrix { src, .. }
            | TransformKind::UnpadSubmatrix { src, .. }
            | TransformKind::PackTiles { src, .. } => *src,
        }
    }

    /// The destination buffer.
    pub fn dst(&self) -> MemBufId {
        match self {
            TransformKind::Im2col { dst, .. }
            | TransformKind::PadImageNchw { dst, .. }
            | TransformKind::WinogradFilter { dst, .. }
            | TransformKind::WinogradInput { dst, .. }
            | TransformKind::WinogradOutput { dst, .. }
            | TransformKind::PackTensor { dst, .. }
            | TransformKind::RotateFilter { dst, .. }
            | TransformKind::PadSubmatrix { dst, .. }
            | TransformKind::UnpadSubmatrix { dst, .. }
            | TransformKind::PackTiles { dst, .. } => *dst,
        }
    }

    /// Whether the transform overwrites all of its destination without
    /// reading it. Every kind does but the two sub-matrix copies: an
    /// `UnpadSubmatrix` writes into part of a destination it keeps, and a
    /// `PadSubmatrix` with `zero_first: false` does too unless it covers the
    /// whole destination. A scatter (`PackTiles` with `SpmToMem`) is staged
    /// only where its tiles cover the destination exactly once.
    pub fn pure(&self) -> bool {
        match self {
            TransformKind::UnpadSubmatrix { .. } => false,
            TransformKind::PadSubmatrix {
                src_rows, src_cols, r0, c0, take_rows, take_cols, dst_rows, dst_cols,
                zero_first, ..
            } => {
                *zero_first
                    || ((*take_rows).min(src_rows.saturating_sub(*r0)) >= *dst_rows
                        && (*take_cols).min(src_cols.saturating_sub(*c0)) >= *dst_cols)
            }
            _ => true,
        }
    }

    /// (elements read, elements written, extra flops per written element) —
    /// the inputs to the transform cost model.
    pub fn traffic(&self) -> (u64, u64, u64) {
        match self {
            TransformKind::Im2col { shape, .. } => {
                let written = swtensor::im2col::im2col_elems(shape) as u64;
                (RowBands::im2col(shape).reads(), written, 0)
            }
            TransformKind::PadImageNchw { shape, .. } => {
                let read = shape.input_shape().numel() as u64;
                let written =
                    (shape.b * shape.ni * (shape.ri() + 2 * shape.pad) * (shape.ci() + 2 * shape.pad))
                        as u64;
                (read, written, 0)
            }
            TransformKind::WinogradFilter { shape, .. } => {
                let read = (shape.no * shape.ni * 9) as u64;
                let written = (16 * shape.no * shape.ni) as u64;
                // G g Gᵀ: ~4 multiply-adds per output element.
                (read, written, 8)
            }
            TransformKind::WinogradInput { shape, nt_pad, .. } => {
                let read = RowBands::winograd(shape).reads();
                let written = 16 * (shape.ni * nt_pad) as u64;
                (read, written, 8)
            }
            TransformKind::WinogradOutput { shape, .. } => {
                // Only the real tiles of M; the padded tail is never read.
                let read = 16 * (shape.no * n_tiles(shape)) as u64;
                let written = (shape.b * shape.no * shape.ro * shape.co) as u64;
                (read, written, 8)
            }
            TransformKind::PackTensor { src_dims, .. } => {
                let n: u64 = src_dims.iter().product::<usize>() as u64;
                (n, n, 0)
            }
            TransformKind::RotateFilter { shape, .. } => {
                let n = shape.weight_shape().numel() as u64;
                (n, n, 0)
            }
            TransformKind::PadSubmatrix {
                take_rows, take_cols, dst_rows, dst_cols, zero_first, ..
            } => {
                let copied = (take_rows * take_cols) as u64;
                let zeroed =
                    if *zero_first { (dst_rows * dst_cols) as u64 - copied } else { 0 };
                (copied, copied + zeroed, 0)
            }
            TransformKind::UnpadSubmatrix { take_rows, take_cols, .. } => {
                let n = (take_rows * take_cols) as u64;
                (n, n, 0)
            }
            TransformKind::PackTiles { rows, cols, iters, .. } => {
                let n_iters: u64 = iters.iter().map(|&(e, _)| e as u64).product();
                let n = n_iters * (rows * cols) as u64;
                (n, n, 0)
            }
        }
    }
}

/// The band plan of a transform that stages rows of one input plane on
/// chip: the Winograd input transform and `Im2col`.
///
/// Each CPE work item is one `(b, ni)` input plane. The CPE fetches the input
/// rows a band of output rows covers into its scratch pad once and writes
/// every output of the band from there, so an input element crosses the bus
/// once per band that covers it: once, where the plane is one band, and twice
/// in the halo two bands share. The Winograd input transform's output rows
/// are its tile rows: each reads 4 input rows, 2 past the last, and holds 16
/// values per tile. `Im2col`'s are the convolution's output rows: each reads
/// `Kr` input rows, `stride` past the last, and holds its `Kr·Kc·Co` values
/// of the column matrix. A plane is split only where its fetch and held
/// values do not fit [`RowBands::SPM_SHARE`]. A fetch takes only the real
/// elements the band's outputs read: padding is never read, and a window
/// that skips input (a 1×1 kernel at stride 2) gathers what it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBands {
    /// Input planes, one CPE work item each.
    planes: usize,
    /// The output rows' windows over the input rows.
    down: Window,
    /// The output columns' windows over the input columns.
    across: Window,
    /// Values a band holds on chip per output row.
    held: usize,
    /// Output rows per band; the last band may hold fewer.
    pub rows: usize,
}

/// One axis of a band plan: `outs` outputs, output `o` reading the input
/// positions `o·step − pad .. o·step + span − pad` that lie in `0..len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    outs: usize,
    step: usize,
    span: usize,
    pad: usize,
    len: usize,
}

impl Window {
    /// The input positions the outputs `outs` read.
    fn covered(&self, outs: Range<usize>) -> usize {
        let lo = |o: usize| (o * self.step).saturating_sub(self.pad).min(self.len);
        let hi = |o: usize| (o * self.step + self.span).saturating_sub(self.pad).min(self.len);
        if outs.is_empty() {
            0
        } else if self.span >= self.step {
            // Consecutive windows overlap or abut: one run.
            hi(outs.end - 1) - lo(outs.start)
        } else {
            outs.map(|o| hi(o) - lo(o)).sum()
        }
    }
}

impl RowBands {
    /// Scratch-pad elements one band may fill: half of a CPE's
    /// [`SPM_BYTES`], the other half holding the next band's fetch in flight.
    pub const SPM_SHARE: usize = SPM_BYTES / ELEM_BYTES / 2;

    /// The Winograd input transform's plan at [`RowBands::SPM_SHARE`].
    pub fn winograd(shape: &ConvShape) -> Self {
        let (tr, tc) = tile_grid(shape);
        let window = |outs, len| Window { outs, step: 2, span: 4, pad: shape.pad, len };
        let (down, across) = (window(tr, shape.ri()), window(tc, shape.ci()));
        RowBands { planes: shape.b * shape.ni, down, across, held: 16 * tc, rows: 0 }
            .at(Self::SPM_SHARE)
    }

    /// `Im2col`'s plan at [`RowBands::SPM_SHARE`].
    pub fn im2col(shape: &ConvShape) -> Self {
        let window =
            |outs, span, len| Window { outs, step: shape.stride, span, pad: shape.pad, len };
        let down = window(shape.ro, shape.kr, shape.ri());
        let across = window(shape.co, shape.kc, shape.ci());
        let held = shape.kr * shape.kc * shape.co;
        RowBands { planes: shape.b * shape.ni, down, across, held, rows: 0 }.at(Self::SPM_SHARE)
    }

    /// The same transform's plan for a band budget of `budget` elements: the
    /// whole plane if its fetch and held values fit, else the most output
    /// rows whose fetch and held values fit, and at least one.
    pub fn at(self, budget: usize) -> Self {
        let Window { outs, step, span, .. } = self.down;
        let cols = self.across.covered(0..self.across.outs);
        let rows = if self.down.covered(0..outs) * cols + self.held * outs <= budget {
            outs
        } else {
            // A band of h rows fetches at most (h − 1)·m + span input rows.
            let m = step.min(span);
            (budget.saturating_sub((span - m) * cols) / (m * cols + self.held)).clamp(1, outs)
        };
        RowBands { rows, ..self }
    }

    /// Bands per plane.
    pub fn count(&self) -> usize {
        self.down.outs.div_ceil(self.rows)
    }

    /// Main-memory elements the plan reads: every band's fetch of every
    /// plane.
    pub fn reads(&self) -> u64 {
        let outs = self.down.outs;
        let rows: usize = (0..outs)
            .step_by(self.rows)
            .map(|r| self.down.covered(r..(r + self.rows).min(outs)))
            .sum();
        (self.planes * rows * self.across.covered(0..self.across.outs)) as u64
    }
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// `for var in 0..extent` (splits normalise min to 0, stride to 1).
    For { var: VarId, extent: usize, body: Box<Stmt> },
    /// `if cond { then_ } else { else_ }`.
    If { cond: Cond, then_: Box<Stmt>, else_: Option<Box<Stmt>> },
    /// Core-group-level DMA (pre-inference form).
    DmaCg(DmaCg),
    /// Per-CPE DMA (executable form).
    DmaCpe(DmaCpe),
    /// Wait for `times` completions on a reply word.
    DmaWait { reply: ReplyId, times: usize },
    /// Tensorized GEMM primitive, boxed: at 256 bytes it is twice the next
    /// largest payload, and every `Seq` slot and `Box<Stmt>` of every tree
    /// would pay for it inline. Build it with [`Stmt::gemm`].
    Gemm(Box<GemmOp>),
    /// Bulk host-side transform.
    Transform(TransformOp),
    /// No-op (useful as a neutral element for builders).
    Nop,
}

impl Stmt {
    /// Wrap statements in a `Seq`, flattening nested `Seq`s and dropping
    /// `Nop`s. The `Seq` holds no spare capacity: every slot is a whole
    /// node, and a vector grown by pushes would keep up to half of them
    /// empty for as long as the tree lives.
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        fn push(out: &mut Vec<Stmt>, s: Stmt) {
            match s {
                Stmt::Seq(inner) => inner.into_iter().for_each(|x| push(out, x)),
                Stmt::Nop => {}
                other => out.push(other),
            }
        }
        // Already flat (the common case for pass output): keep the vector.
        let mut out = if stmts.iter().any(|s| matches!(s, Stmt::Seq(_) | Stmt::Nop)) {
            let mut out = Vec::with_capacity(stmts.len());
            stmts.into_iter().for_each(|s| push(&mut out, s));
            out
        } else {
            stmts
        };
        match out.len() {
            0 => Stmt::Nop,
            1 => out.into_iter().next().unwrap(),
            _ => {
                out.shrink_to_fit();
                Stmt::Seq(out)
            }
        }
    }

    /// `for var in 0..extent { body }`.
    pub fn for_(var: VarId, extent: usize, body: Stmt) -> Stmt {
        Stmt::For { var, extent, body: Box::new(body) }
    }

    /// A GEMM primitive call.
    pub fn gemm(op: GemmOp) -> Stmt {
        Stmt::Gemm(Box::new(op))
    }

    /// A bulk transform that runs on its own ([`TransformOp::new`]).
    pub fn transform(kind: TransformKind) -> Stmt {
        Stmt::Transform(TransformOp::new(kind))
    }

    /// `if cond { then_ }`.
    pub fn if_(cond: Cond, then_: Stmt) -> Stmt {
        Stmt::If { cond, then_: Box::new(then_), else_: None }
    }

    /// `if cond { then_ } else { else_ }`.
    pub fn if_else(cond: Cond, then_: Stmt, else_: Stmt) -> Stmt {
        Stmt::If { cond, then_: Box::new(then_), else_: Some(Box::new(else_)) }
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::Seq(ss) => ss.iter().for_each(|s| s.visit(f)),
            Stmt::For { body, .. } => body.visit(f),
            Stmt::If { then_, else_, .. } => {
                then_.visit(f);
                if let Some(e) = else_ {
                    e.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Count nodes matching a predicate.
    pub fn count(&self, pred: impl Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }

    /// Whether any DMA or GEMM operand of the tree goes through a
    /// [`SpmSlot::Double`] — the mark double buffering leaves. Stops at the
    /// first one found.
    pub fn uses_double_slot(&self) -> bool {
        let double = |slot: &SpmSlot| matches!(slot, SpmSlot::Double { .. });
        match self {
            Stmt::Seq(ss) => ss.iter().any(Stmt::uses_double_slot),
            Stmt::For { body, .. } => body.uses_double_slot(),
            Stmt::If { then_, else_, .. } => {
                then_.uses_double_slot() || else_.as_ref().is_some_and(|e| e.uses_double_slot())
            }
            Stmt::DmaCpe(d) => double(&d.spm),
            Stmt::Gemm(g) => double(&g.a.slot) || double(&g.b.slot) || double(&g.c.slot),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;

    #[test]
    fn a_node_is_no_larger_than_its_largest_dma_payload() {
        // Every `Seq` slot and every `Box<Stmt>` of every candidate tree
        // holds a whole `Stmt`, so the widest variant sets what a tree costs
        // in bytes. The rare GEMM (256 bytes inline) is boxed; what is left
        // is the two DMA nodes. Growing a variant past them — more inline
        // expression terms, an unboxed payload — shows up in every tree.
        assert!(std::mem::size_of::<Stmt>() <= 136, "{} bytes", std::mem::size_of::<Stmt>());
        // An address holds four terms inline in the 32 bytes a `Vec` and the
        // constant took.
        assert!(
            std::mem::size_of::<AffineExpr>() <= 32,
            "{} bytes",
            std::mem::size_of::<AffineExpr>()
        );
        assert!(std::mem::size_of::<DmaCpe>() < std::mem::size_of::<Stmt>());
        assert!(std::mem::size_of::<DmaCg>() < std::mem::size_of::<Stmt>());
    }

    #[test]
    fn seq_flattens_and_drops_nops() {
        let s = Stmt::seq(vec![
            Stmt::Nop,
            Stmt::Seq(vec![Stmt::Nop, Stmt::DmaWait { reply: ReplyId(0), times: 1 }]),
        ]);
        assert!(matches!(s, Stmt::DmaWait { .. }));
        assert_eq!(Stmt::seq(vec![]), Stmt::Nop);
    }

    #[test]
    fn visit_traverses_everything() {
        let body = Stmt::seq(vec![
            Stmt::DmaWait { reply: ReplyId(0), times: 1 },
            Stmt::if_(
                Cond::lt_const(AffineExpr::loop_var(0), 3),
                Stmt::DmaWait { reply: ReplyId(1), times: 1 },
            ),
        ]);
        let tree = Stmt::for_(0, 4, body);
        assert_eq!(tree.count(|s| matches!(s, Stmt::DmaWait { .. })), 2);
        assert_eq!(tree.count(|s| matches!(s, Stmt::For { .. })), 1);
        assert_eq!(tree.count(|s| matches!(s, Stmt::If { .. })), 1);
    }

    #[test]
    fn double_slots_are_found_at_any_depth() {
        let gemm = |c: SpmSlot| {
            let single = MatDesc::new(SpmSlot::single(SpmBufId(0)), MatLayout::RowMajor, 8);
            Stmt::gemm(GemmOp {
                m: 8, n: 8, k: 8, alpha: 1.0, beta: 0.0,
                a: single.clone(), b: single, c: MatDesc::new(c, MatLayout::RowMajor, 8),
                vd: swkernels::VecDim::M, k_step: None,
            })
        };
        let double =
            SpmSlot::Double { even: SpmBufId(1), odd: SpmBufId(2), sel: AffineExpr::loop_var(0) };
        let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let nest = |leaf: Stmt| {
            let guarded =
                Stmt::if_else(Cond::lt_const(AffineExpr::loop_var(0), 3), wait.clone(), leaf);
            Stmt::for_(0, 4, Stmt::seq(vec![wait.clone(), guarded]))
        };
        assert!(!nest(gemm(SpmSlot::single(SpmBufId(1)))).uses_double_slot());
        assert!(nest(gemm(double)).uses_double_slot());
        assert!(!Stmt::Nop.uses_double_slot());
    }

    #[test]
    fn slot_bufs() {
        let d = SpmSlot::Double {
            even: SpmBufId(0),
            odd: SpmBufId(1),
            sel: AffineExpr::loop_var(0),
        };
        assert_eq!(d.bufs(), vec![SpmBufId(0), SpmBufId(1)]);
        assert_eq!(SpmSlot::single(SpmBufId(7)).bufs(), vec![SpmBufId(7)]);
    }

    #[test]
    fn pad_traffic_counts_lightweight_vs_full() {
        // Full pad of a 100×100 into 128×128 writes 128² elements; a strip
        // pad of 4×100 into 32×128 writes 32·128. The ratio is the paper's
        // Fig. 11 story in miniature.
        let full = TransformKind::PadSubmatrix {
            src: MemBufId(0), src_rows: 100, src_cols: 100,
            r0: 0, c0: 0, take_rows: 100, take_cols: 100,
            dst: MemBufId(1), dst_rows: 128, dst_cols: 128, zero_first: true,
        };
        let strip = TransformKind::PadSubmatrix {
            src: MemBufId(0), src_rows: 100, src_cols: 100,
            r0: 96, c0: 0, take_rows: 4, take_cols: 100,
            dst: MemBufId(2), dst_rows: 32, dst_cols: 128, zero_first: true,
        };
        let (fr, fw, _) = full.traffic();
        let (sr, sw, _) = strip.traffic();
        assert_eq!(fr, 10_000);
        assert_eq!(fw, 128 * 128);
        assert_eq!(sr, 400);
        assert_eq!(sw, 32 * 128);
        assert!(sw * 3 < fw);
    }

    #[test]
    fn pack_tiles_traffic_covers_every_iteration() {
        let k = TransformKind::PackTiles {
            src: MemBufId(0), dst: MemBufId(1),
            rows: 64, cols: 32, row_stride: 96, mesh_swap: false,
            direction: DmaDirection::MemToSpm, base: 0, iters: vec![(3, 32), (2, 64 * 96)],
        };
        let (r, w, f) = k.traffic();
        assert_eq!(r, 6 * 64 * 32);
        assert_eq!(w, 6 * 64 * 32);
        assert_eq!(f, 0);
    }

    #[test]
    fn gemm_flops() {
        let d = MatDesc::new(SpmSlot::single(SpmBufId(0)), MatLayout::RowMajor, 8);
        let g = GemmOp {
            m: 64, n: 32, k: 16, alpha: 1.0, beta: 1.0,
            a: d.clone(), b: d.clone(), c: d, vd: swkernels::VecDim::M, k_step: None,
        };
        assert_eq!(g.flops(), 2 * 64 * 32 * 16);
    }
}
