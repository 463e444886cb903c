//! C source emission: the offline-compiler output.
//!
//! swATOP "can be used as an offline compiler by pre-generating
//! near-optimal executable code" — on the real system the code generator
//! lowers IR to C (with inline assembly kernels) compiled by sw5cc. Here we
//! emit equivalent athread-style C so the artefact of a tuning run is
//! inspectable; the simulated machine executes the same IR through the
//! interpreter instead.

use std::fmt::Write;

use sw26010::regcomm::BcastBus;
use swatop_ir::{
    AVar, AffineExpr, Cond, Link, MemBufId, RowBands, SpmSlot, Stmt, TransformKind, TransformOp,
};

use super::Planned;

/// Emit the whole program as a C translation unit.
pub fn emit(exe: &Planned) -> String {
    let p = &exe.program;
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated by swATOP for SW26010 (CPE kernel). */");
    let _ = writeln!(
        out,
        "#include \"swatop_rt.h\"  /* spm_gemm, swDMA, swDMA_bcast, swDMA_gather, swDMAWait */"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "/* Coalesced SPM region: {} floats */", exe.spm_used);
    let _ = writeln!(out, "__thread_local float spm[{}];", exe.spm_used);
    for (i, b) in p.spm_bufs.iter().enumerate() {
        let _ = writeln!(
            out,
            "#define SPM_{} (spm + {})  /* {} [{}] */",
            i, exe.spm_offsets[i], b.name, b.len
        );
    }
    let _ = writeln!(out);
    for (i, _) in (0..p.n_replies).enumerate() {
        let _ = writeln!(out, "__thread_local swReplyWord reply{i};");
    }
    let _ = writeln!(out);
    let args: Vec<String> =
        p.mem_bufs.iter().map(|b| format!("float* restrict {}", sanitize(&b.name))).collect();
    let _ = writeln!(out, "void {}({}) {{", sanitize(&p.name), args.join(", "));
    let _ = writeln!(out, "  const int rid = athread_get_row();");
    let _ = writeln!(out, "  const int cid = athread_get_col();");
    emit_stmt(&p.body, exe, 1, &mut out);
    let _ = writeln!(out, "}}");
    out
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect()
}

fn expr(e: &AffineExpr) -> String {
    let mut parts = Vec::new();
    for (v, c) in e.terms() {
        let name = match v {
            AVar::Loop(i) => format!("v{i}"),
            AVar::Rid => "rid".into(),
            AVar::Cid => "cid".into(),
        };
        parts.push(if c == 1 { name } else { format!("{c}*{name}") });
    }
    if e.constant() != 0 || parts.is_empty() {
        parts.push(e.constant().to_string());
    }
    parts.join(" + ")
}

fn cond(c: &Cond) -> String {
    match c {
        Cond::Lt(a, b) => format!("{} < {}", expr(a), expr(b)),
        Cond::Ge(a, b) => format!("{} >= {}", expr(a), expr(b)),
        Cond::Eq(a, b) => format!("{} == {}", expr(a), expr(b)),
        Cond::And(a, b) => format!("({}) && ({})", cond(a), cond(b)),
    }
}

fn slot(s: &SpmSlot) -> String {
    match s {
        SpmSlot::Single(b) => format!("SPM_{}", b.0),
        SpmSlot::Double { even, odd, sel } => format!(
            "((({}) % 2 == 0) ? SPM_{} : SPM_{})",
            expr(sel),
            even.0,
            odd.0
        ),
    }
}

fn emit_stmt(s: &Stmt, exe: &Planned, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let p = &exe.program;
    match s {
        Stmt::Nop => {}
        Stmt::Seq(ss) => {
            for (i, x) in ss.iter().enumerate() {
                match x {
                    Stmt::Transform(t) => transform(t, &ss[..i], exe, depth, out),
                    other => emit_stmt(other, exe, depth, out),
                }
            }
        }
        Stmt::For { var, extent, body } => {
            let _ = writeln!(out, "{pad}for (int v{var} = 0; v{var} < {extent}; ++v{var}) {{");
            emit_stmt(body, exe, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If { cond: c, then_, else_ } => {
            let _ = writeln!(out, "{pad}if ({}) {{", cond(c));
            emit_stmt(then_, exe, depth + 1, out);
            if let Some(e) = else_ {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_stmt(e, exe, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::DmaCg(d) => {
            let _ = writeln!(
                out,
                "{pad}/* un-lowered DMA_CG({}, {}x{}) */",
                sanitize(&p.mem_bufs[d.buf.0].name),
                d.rows,
                d.cols
            );
        }
        Stmt::DmaCpe(d) => {
            let dir = match d.direction {
                sw26010::DmaDirection::MemToSpm => "MEM_TO_LDM",
                sw26010::DmaDirection::SpmToMem => "LDM_TO_MEM",
            };
            let name = sanitize(&p.mem_bufs[d.buf.0].name);
            let count = d.block * d.n_blocks;
            let (spm, stride, reply) = (slot(&d.spm), d.stride, d.reply.0);
            // A broadcast is a collective of the mesh line: its leader (the
            // line's CPE 0) moves the line's blocks as one of 8× the block.
            let (call, offset, block, bus) = match d.bcast {
                None => ("swDMA", d.offset.clone(), d.block, ""),
                Some(bus) => {
                    let call = match d.direction {
                        sw26010::DmaDirection::MemToSpm => "swDMA_bcast",
                        sw26010::DmaDirection::SpmToMem => "swDMA_gather",
                    };
                    let (axis, line) = match bus {
                        BcastBus::Row => (AVar::Cid, ", ROW"),
                        BcastBus::Column => (AVar::Rid, ", COL"),
                    };
                    let leader = d.offset.add_term(axis, -d.offset.coeff(axis));
                    (call, leader, 8 * d.block, line)
                }
            };
            let _ = writeln!(
                out,
                "{pad}{call}({name} + ({}), {spm}, /*count=*/{count}, /*block=*/{block}, \
                 /*stride=*/{stride}, {dir}{bus}, &reply{reply});",
                expr(&offset),
            );
        }
        Stmt::DmaWait { reply, times } => {
            let _ = writeln!(out, "{pad}swDMAWait(&reply{}, {});", reply.0, times);
        }
        Stmt::Gemm(g) => {
            let vd = match g.vd {
                swkernels::VecDim::M => "SW_VEC_M",
                swkernels::VecDim::N => "SW_VEC_N",
            };
            let beta = match &g.k_step {
                Some(step) => format!("({} == 0 ? 0.0f : {:.1}f)", expr(step), g.beta),
                None => format!("{:.1}f", g.beta),
            };
            let _ = writeln!(
                out,
                "{pad}spm_gemm({}, {}, {}, {:.1}f, {}, {}, {}, {}, {beta}, {}, {}, {vd});",
                g.m, g.n, g.k, g.alpha,
                slot(&g.a.slot), g.a.ld,
                slot(&g.b.slot), g.b.ld,
                slot(&g.c.slot), g.c.ld
            );
        }
        Stmt::Transform(t) => transform(t, &[], exe, depth, out),
    }
}

/// The call of transform `t`, which stands after `before` in its `Seq`.
/// A chain's producer and a sibling run's member run inside the last
/// reader's call. There is one call per fused chain or sibling run, named
/// after its links in order (a run's members as `kernel_xN` where N alike
/// stand together), reading the chain's first source and writing every
/// reader's output. A Winograd input transform or an im2col in the call adds
/// its band height in output rows ([`RowBands`]: tile rows for Winograd).
fn transform(t: &TransformOp, before: &[Stmt], exe: &Planned, depth: usize, out: &mut String) {
    if !t.link.pays() {
        return;
    }
    let p = &exe.program;
    // A run's members, in order, then `t`.
    let closes = matches!(t.link, Link::Closes { .. });
    let mut members: Vec<&TransformOp> = before
        .iter()
        .rev()
        .map_while(|s| match s {
            Stmt::Transform(m) if closes && m.link == Link::Joins => Some(m),
            _ => None,
        })
        .collect();
    members.reverse();
    members.push(t);
    let mut names: Vec<(&str, usize)> = Vec::new();
    for m in &members {
        match names.last_mut() {
            Some((k, n)) if *k == kernel(&m.kind) => *n += 1,
            _ => names.push((kernel(&m.kind), 1)),
        }
    }
    let named = |&(k, n): &(&str, usize)| if n > 1 { format!("{k}_x{n}") } else { k.to_string() };
    let mut name = names.iter().map(named).collect::<Vec<_>>().join("_");
    let mut src = t.kind.src();
    let mut links: Vec<&TransformKind> = members.iter().map(|m| &m.kind).collect();
    if t.link.fed() {
        while let Some(k) = producer_of(&p.body, src) {
            name = format!("{}_{name}", kernel(k));
            src = k.src();
            links.push(k);
        }
    }
    let bands = links
        .iter()
        .filter_map(|k| match k {
            TransformKind::WinogradInput { shape, .. } => Some(RowBands::winograd(shape)),
            TransformKind::Im2col { shape, .. } => Some(RowBands::im2col(shape)),
            _ => None,
        })
        .map(|plan| format!("/*band_rows=*/{}", plan.rows));
    let args: Vec<String> = std::iter::once(src)
        .chain(members.iter().map(|m| m.kind.dst()))
        .map(|b| sanitize(&p.mem_bufs[b.0].name))
        .chain(bands)
        .collect();
    let _ = writeln!(out, "{}{name}({});", "  ".repeat(depth), args.join(", "));
}

/// The runtime function of one transform kind.
fn kernel(kind: &TransformKind) -> &'static str {
    match kind {
        TransformKind::Im2col { .. } => "im2col",
        TransformKind::PadImageNchw { .. } => "pad_image_nchw",
        TransformKind::WinogradFilter { .. } => "winograd_filter_transform",
        TransformKind::WinogradInput { .. } => "winograd_input_transform",
        TransformKind::WinogradOutput { .. } => "winograd_output_transform",
        TransformKind::PackTensor { .. } => "pack_tensor",
        TransformKind::RotateFilter { .. } => "rotate_filter",
        TransformKind::PadSubmatrix { .. } => "pad_tile",
        TransformKind::UnpadSubmatrix { .. } => "unpad_tile",
        // A gather and a scatter: the call's source and destination say
        // which side is packed.
        TransformKind::PackTiles { .. } => "pack_tiles",
    }
}

/// The top-level chain producer whose never-materialised output is `buf`.
fn producer_of(body: &Stmt, buf: MemBufId) -> Option<&TransformKind> {
    let tops = match body {
        Stmt::Seq(ss) => &ss[..],
        other => std::slice::from_ref(other),
    };
    tops.iter().find_map(|s| match s {
        Stmt::Transform(t) if t.link.feeds() && t.kind.dst() == buf => Some(&t.kind),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::plan;
    use sw26010::{DmaDirection, MachineConfig};
    use swatop_ir::{DmaCpe, MemRole, Program, SpmBufId};

    #[test]
    fn emits_compilable_looking_c() {
        let mut p = Program::new("conv kernel");
        let v = p.fresh_var("i");
        let buf = p.mem_buf("input", 1024, MemRole::Input);
        let s = p.spm_buf("tile", 64);
        let s2 = p.spm_buf("tile2", 64);
        let r = p.fresh_reply();
        p.set_body(Stmt::for_(
            v,
            4,
            Stmt::seq(vec![
                Stmt::DmaCpe(DmaCpe {
                    buf,
                    offset: AffineExpr::loop_var(v)
                        .scale(64)
                        .add_term(AVar::Rid, 8),
                    block: 8,
                    stride: 64,
                    n_blocks: 8,
                    direction: DmaDirection::MemToSpm,
                    spm: SpmSlot::Double {
                        even: SpmBufId(0),
                        odd: SpmBufId(1),
                        sel: AffineExpr::loop_var(v),
                    },
                    reply: r,
                    bcast: None,
                    fused: false,
                }),
                Stmt::DmaWait { reply: r, times: 1 },
            ]),
        ));
        let _ = s;
        let _ = s2;
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let c = emit(&exe);
        assert!(c.contains("void conv_kernel(float* restrict input)"), "{c}");
        assert!(c.contains("for (int v0 = 0; v0 < 4; ++v0)"), "{c}");
        assert!(c.contains("swDMA(input + (64*v0 + 8*rid)"), "{c}");
        assert!(c.contains("swDMAWait(&reply0, 1);"), "{c}");
        assert!(c.contains("% 2 == 0) ? SPM_0 : SPM_1"), "{c}");
        assert!(c.contains("__thread_local float spm[128];"), "{c}");
    }

    /// The C of one `DMA_CPE` node of 8-element blocks on `bus`, whose
    /// mesh row is one contiguous line.
    fn one_dma(direction: DmaDirection, bus: Option<BcastBus>) -> String {
        let mut p = Program::new("k");
        let buf = p.mem_buf("c", 4096, MemRole::Output);
        let spm = p.spm_buf("tile", 8);
        let reply = p.fresh_reply();
        p.set_body(Stmt::DmaCpe(DmaCpe {
            buf,
            offset: AffineExpr::konst(16).add_term(AVar::Rid, 64).add_term(AVar::Cid, 8),
            block: 8,
            stride: 8,
            n_blocks: 1,
            direction,
            spm: SpmSlot::Single(spm),
            reply,
            bcast: bus,
            fused: false,
        }));
        emit(&plan(p, &MachineConfig::default()).unwrap())
    }

    #[test]
    fn register_bus_transfers_are_their_own_calls() {
        let (get, put) = (DmaDirection::MemToSpm, DmaDirection::SpmToMem);
        let c = one_dma(put, None);
        let args = "/*count=*/8, /*block=*/8, /*stride=*/8, LDM_TO_MEM, &reply0);";
        assert!(c.contains(&format!("swDMA(c + (64*rid + 8*cid + 16), SPM_0, {args}")), "{c}");
        // The row leader (cid 0) moves its row's 64 elements as one block.
        let line = "/*count=*/8, /*block=*/64, /*stride=*/8";
        let c = one_dma(get, Some(BcastBus::Row));
        let call = format!("swDMA_bcast(c + (64*rid + 16), SPM_0, {line}, MEM_TO_LDM, ROW, ");
        assert!(c.contains(&call), "{c}");
        let c = one_dma(put, Some(BcastBus::Row));
        let call = format!("swDMA_gather(c + (64*rid + 16), SPM_0, {line}, LDM_TO_MEM, ROW, ");
        assert!(c.contains(&call), "{c}");
        let c = one_dma(put, Some(BcastBus::Column));
        assert!(c.contains("swDMA_gather(c + (8*cid + 16), SPM_0, "), "{c}");
        assert!(c.contains("LDM_TO_MEM, COL, &reply0);"), "{c}");
    }

    #[test]
    fn a_sibling_run_is_one_call() {
        let mut p = Program::new("run");
        let x = p.mem_buf("x", 64, MemRole::Input);
        let mid = p.mem_buf("mid", 64, MemRole::Temp);
        let outs: Vec<MemBufId> =
            (0..3).map(|i| p.mem_buf(format!("o{i}"), 64, MemRole::Output)).collect();
        let pack = |src, dst| {
            Stmt::transform(TransformKind::PackTensor { src, dst, src_dims: vec![64], perm: vec![0] })
        };
        let mut body = vec![pack(x, mid)];
        body.extend(outs.iter().map(|&o| pack(mid, o)));
        p.set_body(Stmt::seq(body));
        crate::optimizer::chains::fuse_chains(&mut p);
        let c = emit(&plan(p, &MachineConfig::default()).unwrap());
        assert!(c.contains("  pack_tensor_pack_tensor_x3(x, o0, o1, o2);\n"), "{c}");
        assert_eq!(c.lines().filter(|l| l.contains("pack_tensor")).count(), 1, "{c}");
    }

    #[test]
    fn the_row_band_calls_carry_their_band_height() {
        use crate::ops::{ExplicitConvOp, WinogradConvOp};
        use crate::scheduler::{Operator, Scheduler};
        let sched = Scheduler::new(MachineConfig::default());
        let call = |op: &dyn Operator, kernel: &str| {
            let c = emit(&sched.enumerate(op)[0].exe);
            c.lines().find(|l| l.contains(kernel)).expect("one call").to_string()
        };
        // 4×4 tiles of 2×2 outputs: one 4-row band holds the whole plane.
        let shape = swtensor::ConvShape::square(2, 8, 8, 8);
        let winograd = call(&WinogradConvOp::new(shape), "winograd_input_transform");
        assert!(winograd.ends_with(", /*band_rows=*/4);"), "{winograd}");
        // Every output row of the plane in one band.
        let explicit = call(&ExplicitConvOp::new(shape), "im2col");
        assert!(explicit.ends_with(", /*band_rows=*/8);"), "{explicit}");
    }
}
