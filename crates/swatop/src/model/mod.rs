//! The static performance model (paper Sec. 4.6).
//!
//! * **Eq. (1)** — DMA time: start-up latency plus transaction-quantised
//!   transfer volume over the peak bandwidth share. The model assumes the
//!   first block of every transfer is 128-byte aligned and infers per-block
//!   waste from the stride; the simulated engine computes *exact* waste per
//!   block and charges a per-descriptor overhead the model does not know —
//!   that gap is the model error Fig. 9 quantifies.
//! * **Eq. (2)** — GEMM time: a linear function `αK + βKM + γKMN + δ` fitted
//!   per kernel variant against the pipeline-scoreboard ground truth
//!   ([`GemmModel::calibrate`]).
//! * **T_overall = max(T_DMA, T_compute)** under software prefetching
//!   (the autotuner estimates the *pre-prefetch* IR and applies the overlap
//!   formula, exactly like the paper assumes the optimizer will hide the
//!   latency), plus the bulk transforms, which overlap nothing.

pub mod fit;
#[doc(hidden)]
pub mod memo;
#[doc(hidden)]
pub use memo::estimate_program_memo;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sw26010::regcomm::BcastBus;
use sw26010::{Cycles, MachineConfig, N_CPE};
use swatop_ir::guards::{guards_read, one_path};
use swatop_ir::{DmaCpe, Env, Link, Program, Stmt, TransformOp, VarId};
use swkernels::cost::{timing_fingerprint, TimingFingerprint};
use swkernels::{gemm_cycles, GemmVariant, VecDim, ALL_VARIANTS};

use crate::optimizer::coalesce::broadcast_bus;

/// Eq. (1): model cycles for one DMA batch of `n_requests` symmetric
/// requests of `n_blocks` blocks of `block_elems` elements, `stride_elems`
/// apart — 64 per-CPE requests, or the 8 leader requests (one per mesh row
/// or column) of a broadcast-tiled transfer ([`swatop_ir::DmaShape`]).
pub fn dma_eq1_cycles(
    cfg: &MachineConfig,
    block_elems: usize,
    n_blocks: usize,
    stride_elems: usize,
    n_requests: usize,
) -> f64 {
    let txn = cfg.dram_transaction_bytes;
    let block_bytes = block_elems * 4;
    // "We assume the first block is 128 B aligned, and waste_size of each
    // block can be inferred by the stride size."
    let stride_aligned = (stride_elems * 4).is_multiple_of(txn) || n_blocks == 1;
    let bus_block = if stride_aligned {
        block_bytes.div_ceil(txn) * txn
    } else {
        // Unaligned strides straddle transaction boundaries: expect one
        // extra transaction of waste per block.
        block_bytes.div_ceil(txn) * txn + txn
    };
    let total_bytes = (bus_block * n_blocks * n_requests) as f64;
    // The start-up and per-block descriptor constants are calibrated from
    // DMA micro-benchmarks (as the paper does, following Xu et al. [24]):
    // strided transfers with many small blocks pay a per-descriptor cost on
    // top of the bandwidth term.
    let descriptor = (cfg.dma_block_overhead.get() * (n_blocks * n_requests) as u64) as f64;
    cfg.dma_startup.get() as f64 + descriptor + total_bytes / cfg.mem_bytes_per_cycle
}

/// Eq. (1) for one unfused execution of `d` as if its `bcast` were `bus`
/// ([`DmaCpe::shape_on`]): its requests' transfer, plus a broadcast's
/// register-bus phase, which extends the completion — a get's scatter
/// follows the transfer, a put's gather precedes it.
pub fn dma_node_cycles(cfg: &MachineConfig, d: &DmaCpe, bus: Option<BcastBus>) -> f64 {
    let shape = d.shape_on(cfg, bus);
    let t = dma_eq1_cycles(cfg, shape.block, d.n_blocks, d.stride, shape.requests);
    t + shape.regcomm.map_or(0.0, |c| c.get() as f64)
}

/// Cost of a bulk host-side transform node, not chained onto a
/// predecessor (its `fused` mark is the caller's to apply): transforms are
/// tiled CPE loops streaming through the DMA engine — bandwidth-bound unless
/// heavy per-element arithmetic. Both evaluators charge what this function
/// returns, so transforms contribute zero model error.
///
/// A fused chain ([`Link`]) is one pass: its [`Link::Feeds`] producers cost
/// nothing, and its last link pays one start-up for the chain's reads, its
/// own writes and every link's compute. That is never more than the links
/// would cost apart (`optimizer::chains` fuses only then). A sibling run is
/// one pass too: its [`Link::Joins`] members cost nothing, and its
/// [`Link::Closes`] reader pays for the run's reads, every member's writes
/// and the compute of the producer once and of every member.
pub fn transform_cost(cfg: &MachineConfig, t: &TransformOp) -> Cycles {
    let (reads, writes, flops_per_write) = t.kind.traffic();
    match t.link {
        Link::Alone => pass_cost(cfg, reads, writes, transform_compute(writes, flops_per_write)),
        Link::Feeds { .. } | Link::Joins => Cycles(0),
        Link::Ends { reads, compute } => pass_cost(cfg, reads, writes, u64::from(compute)),
        Link::Closes { reads, writes, compute } => {
            pass_cost(cfg, reads, writes, u64::from(compute))
        }
    }
}

/// The CPEs' cycles for a transform that writes `writes` elements at
/// `flops_per_write` extra flops each: 64 CPEs × 4-wide ops, 1 +
/// `flops_per_write` operations per element.
pub fn transform_compute(writes: u64, flops_per_write: u64) -> u64 {
    writes * (1 + flops_per_write) / (N_CPE as u64 * 4)
}

/// One pass over main memory: a start-up, then the transfer of `reads +
/// writes` elements or the compute, whichever is longer.
fn pass_cost(cfg: &MachineConfig, reads: u64, writes: u64, compute: u64) -> Cycles {
    let bytes = 4 * (reads + writes);
    let transfer = (bytes as f64 / cfg.mem_bytes_per_cycle).ceil() as u64;
    cfg.dma_startup + Cycles(transfer.max(compute))
}

/// The calibrated Eq. (2) model: one coefficient vector per kernel variant.
#[derive(Debug, Clone)]
pub struct GemmModel {
    pub coef: [[f64; fit::N_FEATURES]; 8],
}

static MODEL_CACHE: Mutex<Option<HashMap<TimingFingerprint, Arc<GemmModel>>>> = Mutex::new(None);

impl GemmModel {
    /// Fit all eight variants against the scoreboard ground truth. Cached
    /// per kernel timing (the paper benchmarks its kernels offline; here a
    /// cold fit is ≈ 1 ms, because the 3,744 sampled shapes share 96
    /// register-block simulations — see `swkernels::cost`). Prefer
    /// [`GemmModel::cached`] in hot paths — it shares the fitted model
    /// instead of cloning it.
    pub fn calibrate(cfg: &MachineConfig) -> GemmModel {
        (*Self::cached(cfg)).clone()
    }

    /// Shared handle to the calibrated model for `cfg`, keyed on every
    /// field `gemm_cycles` reads ([`timing_fingerprint`]). The cache lock is
    /// held across the fit so concurrent tuner threads asking for the same
    /// configuration calibrate exactly once and everyone else blocks on the
    /// single fit instead of duplicating it.
    pub fn cached(cfg: &MachineConfig) -> Arc<GemmModel> {
        let key = timing_fingerprint(cfg);
        let mut cache = MODEL_CACHE.lock();
        if let Some(m) = cache.as_ref().and_then(|c| c.get(&key)) {
            return Arc::clone(m);
        }
        let mut coef = [[0.0; fit::N_FEATURES]; 8];
        for v in ALL_VARIANTS {
            let samples: Vec<_> = calibration_shapes(v)
                .map(|(m, n, k)| {
                    let y = gemm_cycles(cfg, v, m, n, k).get() as f64;
                    (fit::features(m, n, k), y, 1.0 / (y * y))
                })
                .collect();
            coef[v.index()] = fit::wls(&samples);
        }
        let model = Arc::new(GemmModel { coef });
        cache.get_or_insert_with(HashMap::new).insert(key, Arc::clone(&model));
        model
    }

    /// Predicted cycles for one `spm_gemm(M, N, K)` call.
    pub fn predict(&self, variant: GemmVariant, m: usize, n: usize, k: usize) -> f64 {
        fit::predict(&self.coef[variant.index()], m, n, k)
    }
}

/// The `(M, N, K)` shapes Eq. (2) is fitted on for variant `v`: the legal
/// shapes of an 8 × 7 × 9 grid (3,744 over the eight variants).
pub fn calibration_shapes(v: GemmVariant) -> impl Iterator<Item = (usize, usize, usize)> {
    const M: [usize; 8] = [32, 64, 96, 128, 160, 192, 256, 320];
    const N: [usize; 7] = [32, 48, 64, 96, 128, 192, 256];
    const K: [usize; 9] = [8, 16, 24, 32, 64, 96, 128, 192, 256];
    M.into_iter()
        .flat_map(|m| N.into_iter().flat_map(move |n| K.into_iter().map(move |k| (m, n, k))))
        .filter(move |&(m, n, k)| valid_shape(v, m, n, k))
}

/// Is (M, N, K) a legal shape for this variant? (mesh divisibility and
/// per-CPE vector alignment — same rules as `spm_gemm::validate`.)
pub fn valid_shape(v: GemmVariant, m: usize, n: usize, k: usize) -> bool {
    if !m.is_multiple_of(8) || !n.is_multiple_of(8) || !k.is_multiple_of(8) {
        return false;
    }
    match v.vec {
        VecDim::M => (m / 8).is_multiple_of(4),
        VecDim::N => (n / 8).is_multiple_of(4),
    }
}

/// Static cost estimate of a program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Modelled DMA engine time (Eq. 1 summed over all transfers).
    pub t_dma: f64,
    /// Modelled instruction-stream time (Eq. 2 and DMA waits).
    pub t_compute: f64,
    /// Bulk transforms: they occupy the DMA engine and the CPEs at once and
    /// overlap nothing, so they are charged once, outside both clocks.
    pub t_transform: f64,
}

impl Estimate {
    /// `T_overall`: the transforms plus, with prefetching, DMA and compute
    /// overlapped (`max`); without, serialised (`sum`).
    pub fn overall(&self, prefetched: bool) -> f64 {
        let main = if prefetched {
            self.t_dma.max(self.t_compute)
        } else {
            self.t_dma + self.t_compute
        };
        self.t_transform + main
    }

    /// The estimate of `extent` iterations that each estimate as `self`.
    fn times(&self, extent: usize) -> Estimate {
        let n = extent as f64;
        Estimate {
            t_dma: self.t_dma * n,
            t_compute: self.t_compute * n,
            t_transform: self.t_transform * n,
        }
    }
}

impl std::ops::AddAssign for Estimate {
    fn add_assign(&mut self, other: Estimate) {
        self.t_dma += other.t_dma;
        self.t_compute += other.t_compute;
        self.t_transform += other.t_transform;
    }
}

/// Price one leaf statement into `est`: Eq. (1) for a DMA node, Eq. (2) for
/// a GEMM call, the interpreter's own price for a transform. A node is
/// priced by its shape alone, never by its offsets or the loop variables:
/// that is what lets [`estimate`] price a run of iterations that take one
/// path through a loop body by walking one of them.
///
/// With `tag`, an untagged `DMA_CPE` node is priced as
/// [`tag_broadcast`](crate::optimizer::coalesce::tag_broadcast) would leave
/// it: on the bus [`broadcast_bus`] finds, if any — a get's, or a put's that
/// gathers cheaper. A `DMA_CG` node is priced
/// lowered and untagged, as the pipeline leaves it.
pub fn estimate_leaf(
    cfg: &MachineConfig,
    model: &GemmModel,
    s: &Stmt,
    tag: bool,
    est: &mut Estimate,
) {
    let mut dma = |d: &DmaCpe, bus: Option<BcastBus>| {
        // Fused nodes chain onto the preceding batch: Eq. (1)'s start-up
        // term is paid once per batch group, not per node.
        let mut t = dma_node_cycles(cfg, d, bus);
        if d.fused {
            t -= cfg.dma_startup.get() as f64;
        }
        est.t_dma += t;
    };
    match s {
        // Estimate as if lowered (cols/8 blocks etc.).
        Stmt::DmaCg(d) => dma(&crate::optimizer::dma_inference::lower_node(d), None),
        Stmt::DmaCpe(d) => {
            let bus = if tag && d.bcast.is_none() { broadcast_bus(d) } else { d.bcast };
            dma(d, bus)
        }
        Stmt::DmaWait { .. } => est.t_compute += cfg.dma_wait_poll.get() as f64,
        Stmt::Gemm(g) => {
            let variant =
                GemmVariant { a_layout: g.a.layout, b_layout: g.b.layout, vec: g.vd };
            est.t_compute += model.predict(variant, g.m, g.n, g.k);
        }
        Stmt::Transform(t) => {
            // Transforms stream through memory: they occupy both the DMA
            // engine and the CPEs, and cannot be overlapped with the main
            // loop; charged once, on their own clock. Fused transforms chain
            // onto their predecessor's pipeline and skip the start-up
            // latency, as in the interpreter. A chain's producers and a
            // sibling run's members cost nothing: the last reader pays.
            let mut c = transform_cost(cfg, t).get() as f64;
            if t.fused {
                c -= cfg.dma_startup.get() as f64;
            }
            est.t_transform += c;
        }
        Stmt::Nop | Stmt::Seq(_) | Stmt::For { .. } | Stmt::If { .. } => {}
    }
}

/// Estimate a lowered (pre-prefetch) program: the tier-0 analytic screen.
/// No machine state is touched — this is what makes the model-based
/// autotuner some 20× faster than black-box execution (Tab. 3, re-measured
/// at `--jobs 1`: 22–31× on VGG16, 18–20× on ResNet, 16–21× on Yolo).
///
/// A loop whose variable no guard inside reads is priced symbolically: one
/// iteration × extent. A loop whose variable a guard reads is split into
/// maximal runs of iterations that take one path through its body
/// ([`swatop_ir::guards::one_path`]); one iteration per run is walked, and
/// its estimate is added to the loop's total once per iteration of the run,
/// in order. That is the left-to-right sum a walk of every iteration makes,
/// so scores are bit-identical to it (`tests/screen_oracle.rs`).
///
/// The one hint read is `bcast`: such a program is priced as the executable
/// it builds into, every unguarded get or gatherable put that
/// [`tag_broadcast`](crate::optimizer::coalesce::tag_broadcast) would tag
/// priced on its bus. So the `bcast` siblings share one untagged tree and
/// still price apart.
pub fn estimate(cfg: &MachineConfig, model: &GemmModel, p: &Program) -> Estimate {
    let mut env = Env::new(p.n_vars().max(1));
    let mut est = Estimate::default();
    walk(cfg, model, &p.body, p.hints.bcast, &mut env, &mut est);
    est
}

/// Add the estimate of `s` to `est`, pricing eligible nodes as broadcast
/// when `tag` (which an `If` arm clears). Every loop is priced into its own
/// accumulator, then added.
fn walk(
    cfg: &MachineConfig,
    model: &GemmModel,
    s: &Stmt,
    tag: bool,
    env: &mut Env,
    est: &mut Estimate,
) {
    match s {
        Stmt::For { var, extent, body } => {
            let saved = env.get(*var);
            let mut sub = Estimate::default();
            if guards_read(body, *var) {
                let last = *extent as i64 - 1;
                let mut lo = 0;
                while lo <= last {
                    let hi = run_end(*var, body, env, lo, last);
                    env.set(*var, lo);
                    let mut one = Estimate::default();
                    walk(cfg, model, body, tag, env, &mut one);
                    for _ in lo..=hi {
                        sub += one;
                    }
                    lo = hi + 1;
                }
            } else {
                env.set(*var, 0);
                let mut one = Estimate::default();
                walk(cfg, model, body, tag, env, &mut one);
                sub = one.times(*extent);
            }
            env.set(*var, saved);
            *est += sub;
        }
        // Tagging leaves guarded gets alone.
        Stmt::If { cond, then_, else_ } => {
            if cond.eval(env, 0, 0) {
                walk(cfg, model, then_, false, env, est);
            } else if let Some(e) = else_ {
                walk(cfg, model, e, false, env, est);
            }
        }
        Stmt::Seq(ss) => ss.iter().for_each(|x| walk(cfg, model, x, tag, env, est)),
        leaf => estimate_leaf(cfg, model, leaf, tag, est),
    }
}

/// The last iteration of the run of `for var in 0..=last { body }` that
/// starts at `lo`: the greatest `hi` for which [`one_path`] proves that
/// iterations `lo ..= hi` take one path through `body` (a narrower range
/// never fails where a wider one holds). The whole rest of the loop, or all
/// of it but a boundary last iteration, is tried first; otherwise the end
/// is galloped to and then bisected. A one-iteration run needs no proof.
fn run_end(var: VarId, body: &Stmt, env: &Env, lo: i64, last: i64) -> i64 {
    let holds = |hi| one_path(var, body, env, (lo, hi), None);
    if lo == last || holds(last) {
        return last;
    }
    if lo + 1 == last || holds(last - 1) {
        return last - 1;
    }
    // `holds(good)` (trivially at `lo`) and not `holds(bad)`.
    let (mut good, mut bad) = (lo, last - 1);
    let mut len = 1;
    while lo + len < bad {
        if !holds(lo + len) {
            bad = lo + len;
            break;
        }
        good = lo + len;
        len *= 2;
    }
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        if holds(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_scales_with_volume_and_penalises_misalignment() {
        let cfg = MachineConfig::default();
        let small = dma_eq1_cycles(&cfg, 32, 8, 32, N_CPE);
        let big = dma_eq1_cycles(&cfg, 32, 64, 32, N_CPE);
        assert!(big > 4.0 * small / 2.0);
        // Aligned stride (32 elems = 128 B) vs unaligned (33 elems).
        let aligned = dma_eq1_cycles(&cfg, 16, 64, 32, N_CPE);
        let unaligned = dma_eq1_cycles(&cfg, 16, 64, 33, N_CPE);
        assert!(unaligned > aligned, "{unaligned} !> {aligned}");
    }

    #[test]
    fn model_cache_separates_every_kernel_timing_field() {
        // `regcomm_switch` and `vstd_latency` move `gemm_cycles` just like
        // the vmad/load latencies do; a config differing only there must get
        // its own fit, not the default one's.
        let base = MachineConfig::default();
        let base_coef = GemmModel::cached(&base).coef;
        let mut rotated = base.clone();
        rotated.regcomm_switch = Cycles(2 * base.regcomm_switch.get());
        let mut slow_stores = base.clone();
        slow_stores.vstd_latency += 8;
        for cfg in [rotated, slow_stores] {
            let coef = GemmModel::cached(&cfg).coef;
            assert_ne!(coef, base_coef);
            // ... and it follows that config's slower ground truth.
            let v = ALL_VARIANTS[0].index();
            assert!(fit::predict(&coef[v], 128, 64, 64) > fit::predict(&base_coef[v], 128, 64, 64));
        }
        assert_eq!(GemmModel::cached(&base).coef, base_coef);
    }

    #[test]
    fn gemm_model_tracks_ground_truth_within_tolerance() {
        let cfg = MachineConfig::default();
        let model = GemmModel::calibrate(&cfg);
        let mut worst: f64 = 0.0;
        for v in ALL_VARIANTS {
            for &(m, n, k) in &[(64usize, 64usize, 64usize), (128, 64, 32), (256, 128, 128)] {
                if !valid_shape(v, m, n, k) {
                    continue;
                }
                let truth = gemm_cycles(&cfg, v, m, n, k).get() as f64;
                let pred = model.predict(v, m, n, k);
                let err = (pred - truth).abs() / truth;
                worst = worst.max(err);
            }
        }
        assert!(worst < 0.25, "worst relative error {worst}");
    }

    #[test]
    fn model_ranks_fast_variant_above_slow() {
        let cfg = MachineConfig::default();
        let model = GemmModel::calibrate(&cfg);
        let fast = ALL_VARIANTS.iter().find(|v| v.vector_load_ok()).unwrap();
        let slow = ALL_VARIANTS.iter().find(|v| !v.vector_load_ok()).unwrap();
        assert!(
            model.predict(*fast, 128, 128, 128) < model.predict(*slow, 128, 128, 128),
            "model must preserve the variant ordering"
        );
    }

    #[test]
    fn a_transform_is_charged_once_prefetched_or_not() {
        use swatop_ir::{MemRole, ReplyId, TransformKind};
        let cfg = MachineConfig::default();
        let model = GemmModel::cached(&cfg);
        let mut p = Program::new("one_transform");
        let src = p.mem_buf("src", 64 * 32, MemRole::Input);
        let dst = p.mem_buf("dst", 64 * 32, MemRole::Output);
        let kind = TransformKind::PackTensor { src, dst, src_dims: vec![64, 32], perm: vec![1, 0] };
        let cost = transform_cost(&cfg, &TransformOp::new(kind.clone())).get() as f64;
        let wait = cfg.dma_wait_poll.get() as f64;
        p.set_body(Stmt::seq(vec![
            Stmt::transform(kind),
            Stmt::DmaWait { reply: ReplyId(0), times: 0 },
        ]));
        let e = estimate(&cfg, &model, &p);
        assert_eq!(e, Estimate { t_dma: 0.0, t_compute: wait, t_transform: cost });
        assert_eq!(e.overall(true), cost + wait);
        assert_eq!(e.overall(false), cost + wait);
        // The rest overlaps under prefetching and serialises without it.
        let e = Estimate { t_dma: 100.0, t_compute: 60.0, t_transform: 30.0 };
        assert_eq!(e.overall(true), 130.0);
        assert_eq!(e.overall(false), 190.0);
    }

    #[test]
    fn valid_shape_rules() {
        use swtensor::MatLayout::*;
        let vm = GemmVariant { a_layout: ColMajor, b_layout: RowMajor, vec: VecDim::M };
        assert!(valid_shape(vm, 32, 8, 8));
        assert!(!valid_shape(vm, 16, 8, 8)); // mb=2 not vector-aligned
        assert!(!valid_shape(vm, 33, 8, 8)); // not mesh-divisible
        let vn = GemmVariant { a_layout: ColMajor, b_layout: RowMajor, vec: VecDim::N };
        assert!(valid_shape(vn, 8, 32, 8));
        assert!(!valid_shape(vn, 8, 16, 8));
    }
}
