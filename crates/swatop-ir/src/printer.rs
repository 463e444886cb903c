//! Human-readable IR pretty-printer.
//!
//! The same traversal is reused by the code generator's C emitter; here the
//! output is a compact pseudo-code that shows up in logs, tests and the
//! `offline_codegen` example.

use std::fmt::Write;

use crate::program::Program;
use crate::stmt::{SpmSlot, Stmt, TransformKind};

/// Render a program to pseudo-code.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {} {{", p.name);
    for (i, b) in p.mem_bufs.iter().enumerate() {
        let _ = writeln!(out, "  mem m{i} \"{}\" [{}] ({:?})", b.name, b.len, b.role);
    }
    for (i, b) in p.spm_bufs.iter().enumerate() {
        let _ = writeln!(out, "  spm s{i} \"{}\" [{}]", b.name, b.len);
    }
    print_stmt(&p.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn slot_str(s: &SpmSlot) -> String {
    match s {
        SpmSlot::Single(b) => format!("s{}", b.0),
        SpmSlot::Double { even, odd, sel } => {
            format!("dbl(s{}, s{}; sel = {})", even.0, odd.0, sel)
        }
    }
}

/// Render one statement subtree at the given indent depth.
pub fn print_stmt(s: &Stmt, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match s {
        Stmt::Seq(ss) => ss.iter().for_each(|x| print_stmt(x, depth, out)),
        Stmt::For { var, extent, body } => {
            let _ = writeln!(out, "{pad}for v{var} in 0..{extent} {{");
            print_stmt(body, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If { cond, then_, else_ } => {
            let _ = writeln!(out, "{pad}if {cond} {{");
            print_stmt(then_, depth + 1, out);
            if let Some(e) = else_ {
                let _ = writeln!(out, "{pad}}} else {{");
                print_stmt(e, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::DmaCg(d) => {
            let _ = writeln!(
                out,
                "{pad}DMA_CG({:?}, m{}, @({}) , {}x{} rs={}) -> {} [r{}]",
                d.direction, d.buf.0, d.offset, d.rows, d.cols, d.row_stride,
                slot_str(&d.spm), d.reply.0
            );
        }
        Stmt::DmaCpe(d) => {
            let bc = match d.bcast {
                None => String::new(),
                Some(b) => format!(", bcast={b:?}"),
            };
            let _ = writeln!(
                out,
                "{pad}DMA_CPE({:?}, m{}, @({}), block={}, stride={}, n={}{bc}) -> {} [r{}]",
                d.direction, d.buf.0, d.offset, d.block, d.stride, d.n_blocks,
                slot_str(&d.spm), d.reply.0
            );
        }
        Stmt::DmaWait { reply, times } => {
            let _ = writeln!(out, "{pad}DMA_WAIT(r{}, {times})", reply.0);
        }
        Stmt::Gemm(g) => {
            let _ = writeln!(
                out,
                "{pad}GEMM(m={}, n={}, k={}, a={}, b={}, c={}, vd={:?}, alpha={}, beta={})",
                g.m, g.n, g.k,
                slot_str(&g.a.slot), slot_str(&g.b.slot), slot_str(&g.c.slot),
                g.vd, g.alpha, g.beta
            );
        }
        Stmt::Transform(t) => {
            let name = match &t.kind {
                TransformKind::Im2col { .. } => "im2col",
                TransformKind::PadImageNchw { .. } => "pad_image",
                TransformKind::WinogradFilter { .. } => "winograd_filter",
                TransformKind::WinogradInput { .. } => "winograd_input",
                TransformKind::WinogradOutput { .. } => "winograd_output",
                TransformKind::PackTensor { .. } => "pack",
                TransformKind::RotateFilter { .. } => "rotate_filter",
                TransformKind::PadSubmatrix { .. } => "pad",
                TransformKind::UnpadSubmatrix { .. } => "unpad",
                TransformKind::ZeroBuf { .. } => "zero",
                TransformKind::PackTiles { .. } => "pack_tiles",
            };
            let _ = writeln!(out, "{pad}TRANSFORM({name})");
        }
        Stmt::Nop => {
            let _ = writeln!(out, "{pad}nop");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AffineExpr, Cond};
    use crate::program::MemRole;
    use crate::stmt::{DmaCpe, MemBufId, SpmBufId};
    use sw26010::DmaDirection;

    #[test]
    fn prints_structure() {
        let mut p = Program::new("demo");
        let v = p.fresh_var("i");
        p.mem_buf("in", 64, MemRole::Input);
        p.spm_buf("buf", 8);
        let r = p.fresh_reply();
        let dma = Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(0),
            offset: AffineExpr::loop_var(v).scale(8),
            block: 8,
            stride: 8,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(SpmBufId(0)),
            reply: r,
            bcast: None,
            fused: false,
        });
        p.set_body(Stmt::for_(
            v,
            4,
            Stmt::seq(vec![
                Stmt::if_(Cond::lt_const(AffineExpr::loop_var(v), 3), dma),
                Stmt::DmaWait { reply: r, times: 1 },
            ]),
        ));
        let s = print_program(&p);
        assert!(s.contains("for v0 in 0..4"), "{s}");
        assert!(s.contains("DMA_CPE"), "{s}");
        assert!(s.contains("if v0 < 3"), "{s}");
        assert!(s.contains("DMA_WAIT(r0, 1)"), "{s}");
        assert!(s.contains("mem m0 \"in\""), "{s}");
    }
}
