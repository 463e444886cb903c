//! # swatop-ir — the intermediate representation
//!
//! swATOP lowers every schedule strategy into an IR (paper Sec. 4.4): an
//! abstract syntax tree of statement nodes — `for`, `if-then-else`, `DMA`,
//! `gemm_op`, … — whose attributes (loop extents, address expressions, tile
//! shapes, buffer bindings) the scheduler and IR optimizer mutate.
//!
//! Key design points mirrored from the paper:
//!
//! * **Affine address expressions** ([`expr::AffineExpr`]) over the enclosing
//!   loop variables plus the CPE mesh coordinates `rid`/`cid`. These are the
//!   `Φ(I) = addr` functions that DMA inference and auto-prefetching reason
//!   about (Sec. 4.5.1–4.5.2). An expression of up to four terms holds them
//!   inline (a `u8` variable code and an `i32` coefficient each, 32 bytes in
//!   all) and spills to one boxed slice past that, so a short address
//!   allocates nothing; [`expr::AffineExpr::terms`] iterates either form.
//! * **Two levels of DMA node**: [`stmt::DmaCg`] describes a whole-core-group
//!   tile access (`DMA_CG(addr, totalsize, direction)`); the DMA-inference
//!   pass lowers it to a per-CPE strided node ([`stmt::DmaCpe`]) with the
//!   `(offset, block, stride, size)` attributes derived from `(rid, cid)`
//!   and the layout, exactly as in Fig. 4 (right).
//! * **Double-buffer slots** ([`stmt::SpmSlot::Double`]): the auto-prefetch
//!   pass retargets DMA and GEMM operands through a parity selector — an
//!   affine expression over the loop variables — so that software
//!   prefetching is expressed *in* the IR rather than bolted onto the
//!   interpreter.
//! * **Programs are shared handles** ([`program::Program`]): the statement
//!   tree and the symbol tables sit behind `Arc`s, a clone is O(1), and a
//!   write copies a part only while another handle shares it. An autotuner
//!   materialises thousands of schedule variants that differ in a knob the
//!   tree never sees; they share the tree (TVM keeps its IR as immutable
//!   reference-counted nodes for the same reason). Who shares what, and
//!   what relies on it, is DESIGN.md §18.
//! * **Host-side transform nodes** ([`stmt::TransformOp`]): layout packing,
//!   im2col expansion, Winograd transforms and boundary padding run as
//!   bandwidth-costed bulk operations, the way the real system executes them
//!   as memory-bound CPE loops.
//! * **One guard-range analysis** ([`guards`]): which iterations of a loop
//!   take one path through its body, read by both the cost-only
//!   interpreter and the analytic model.

pub mod expr;
pub mod guards;
pub mod program;
pub mod stmt;
pub mod transform;

pub use expr::{AVar, AffineExpr, Cond, Env, VarId};
pub use program::{MemBufDecl, MemRole, Program, ScheduleHints, SpmBufDecl};
pub use stmt::{
    DmaCg, DmaCpe, DmaShape, GemmOp, Link, MatDesc, MemBufId, ReplyId, RowBands, SpmBufId,
    SpmSlot, Stmt, TransformKind, TransformOp,
};
