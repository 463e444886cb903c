//! Property-based tests for the machine substrate.

use proptest::prelude::*;
use sw26010::dma::{bus_bytes, DmaBatch, DmaRequest};
use sw26010::pipeline::{Instruction, Pipe, Scoreboard};
use sw26010::{CoreGroup, Cycles, DmaDirection, ExecMode, MachineConfig};

proptest! {
    /// The periodic bus-byte computation equals the naive per-block sum.
    #[test]
    fn bus_bytes_matches_naive(
        off in 0usize..512,
        block in 1usize..96,
        extra in 0usize..128,
        n in 1usize..80,
    ) {
        let stride = block + extra;
        let naive: usize = (0..n)
            .map(|b| {
                let start = (off + b * stride) * 4;
                let end = start + block * 4;
                (end.div_ceil(128) - start / 128) * 128
            })
            .sum();
        prop_assert_eq!(bus_bytes(off, block, stride, n, 128), naive);
    }

    /// Bus bytes never undercount the payload.
    #[test]
    fn bus_bytes_at_least_payload(
        off in 0usize..512,
        block in 1usize..64,
        extra in 0usize..64,
        n in 1usize..32,
    ) {
        let stride = block + extra;
        prop_assert!(bus_bytes(off, block, stride, n, 128) >= block * n * 4);
    }

    /// Scoreboard issue times are monotonically non-decreasing (in-order
    /// machine), and the finish time covers every instruction.
    #[test]
    fn scoreboard_in_order(instrs in proptest::collection::vec(
        (0u8..2, 0u16..8, 0u16..8, 1u64..12), 1..40)
    ) {
        let mut sb = Scoreboard::new(8);
        let mut last = 0;
        let mut max_done = 0;
        for (pipe, dst, src, lat) in instrs {
            let pipe = if pipe == 0 { Pipe::P0 } else { Pipe::P1 };
            let t = sb.issue(&Instruction::new(pipe, Some(dst), &[src], lat));
            prop_assert!(t >= last, "in-order issue violated");
            last = t;
            max_done = max_done.max(t + lat);
        }
        prop_assert!(sb.finish_time().get() >= max_done);
    }

    /// DMA engine time grows monotonically with transfer size.
    #[test]
    fn dma_engine_monotone(elems in 1usize..4096) {
        let cfg = MachineConfig::default();
        let mk = |n: usize| {
            let mut e = sw26010::dma::DmaEngine::new();
            let r = [DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, n)];
            let batch = DmaBatch::of(&cfg, DmaDirection::MemToSpm, &r, &r).unwrap();
            e.schedule(&cfg, Cycles(0), &batch, false)
        };
        prop_assert!(mk(elems + 64) >= mk(elems));
    }

    /// Functional DMA round trip preserves arbitrary data exactly.
    #[test]
    fn dma_roundtrip_preserves_data(data in proptest::collection::vec(-1e6f32..1e6, 1..256)) {
        let mut cg = CoreGroup::with_mode(ExecMode::Functional);
        let src = cg.mem.alloc_from("src", &data);
        let dst = cg.mem.alloc("dst", data.len());
        let (bsrc, bdst) = (cg.mem.base(src), cg.mem.base(dst));
        let reply = cg.alloc_reply();
        cg.dma(
            DmaDirection::MemToSpm,
            &[DmaRequest::contiguous(5, DmaDirection::MemToSpm, bsrc, 0, data.len())],
            reply,
        )
        .unwrap();
        cg.dma_wait(reply, 1).unwrap();
        cg.dma(
            DmaDirection::SpmToMem,
            &[DmaRequest::contiguous(5, DmaDirection::SpmToMem, bdst, 0, data.len())],
            reply,
        )
        .unwrap();
        cg.dma_wait(reply, 1).unwrap();
        prop_assert_eq!(cg.mem.buffer(dst), data.as_slice());
    }
}
