//! Criterion benches for the machine substrate: dual-issue scoreboard and
//! DMA engine cost evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use sw26010::dma::{DmaBatch, DmaEngine, DmaRequest};
use sw26010::pipeline::{Instruction, Pipe, Scoreboard};
use sw26010::{Cycles, DmaDirection, MachineConfig};

fn bench_scoreboard(c: &mut Criterion) {
    // A realistic software-pipelined stream: 16 vmads + 8 loads per step.
    let mut stream = Vec::new();
    for k in 0..64u16 {
        let set = (k % 2) * 8;
        for i in 0..8u16 {
            stream.push(Instruction::new(Pipe::P1, Some(16 + set + i), &[], 11));
        }
        for i in 0..16u16 {
            stream.push(Instruction::new(
                Pipe::P0,
                Some(i),
                &[16 + set, 17 + set, i],
                7,
            ));
        }
    }
    c.bench_function("scoreboard_64_steps", |b| {
        b.iter(|| {
            let mut sb = Scoreboard::default();
            std::hint::black_box(sb.run(&stream))
        })
    });
}

fn bench_dma_engine(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let reqs: Vec<DmaRequest> = (0..64)
        .map(|cpe| DmaRequest {
            cpe,
            direction: DmaDirection::MemToSpm,
            mem_offset: cpe * 1024,
            spm_offset: 0,
            block_elems: 32,
            stride_elems: 256,
            n_blocks: 8,
        })
        .collect();
    c.bench_function("dma_schedule_batch64", |b| {
        b.iter(|| {
            let batch = DmaBatch::of(&cfg, DmaDirection::MemToSpm, &reqs, &reqs).unwrap();
            std::hint::black_box(DmaEngine::new().schedule(&cfg, Cycles(0), &batch, false))
        })
    });
}

criterion_group!(benches, bench_scoreboard, bench_dma_engine);
criterion_main!(benches);
