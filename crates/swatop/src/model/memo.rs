//! The frozen `benchmark/` package compiles against exactly these names and
//! shapes (`BENCHMARK.json` forbids editing it in a product PR). The screen
//! has no cache: [`MemoCache`] is zero-sized and counts nothing, and
//! [`estimate_program_memo`] is [`estimate`]. Nothing else calls them, and
//! the benchmark's next revision removes them.

use sw26010::MachineConfig;
use swatop_ir::Program;

use super::{estimate, Estimate, GemmModel};

#[derive(Debug, Default)]
pub struct MemoCache;

impl MemoCache {
    pub fn global() -> &'static MemoCache {
        &MemoCache
    }

    pub fn hits(&self) -> u64 {
        0
    }

    pub fn misses(&self) -> u64 {
        0
    }
}

pub fn estimate_program_memo(
    cfg: &MachineConfig,
    model: &GemmModel,
    p: &Program,
    _memo: Option<&MemoCache>,
) -> Estimate {
    estimate(cfg, model, p)
}
