//! Code generation: SPM allocation planning and C source emission.
//!
//! The paper's code generator "analyzes the memory usage information in the
//! IR and allocates all buffers into a single coalesced region" (Sec. 4.7).
//! [`plan`] performs that allocation for the simulated machine and rejects
//! programs that exceed the 64 KB scratch pad — the same capacity filter the
//! scheduler applies while enumerating candidates.

pub mod c_emit;

use sw26010::{MachineConfig, MachineError, MachineResult};
use swatop_ir::{Program, SpmBufId};

/// A program with a concrete SPM allocation, ready to execute or emit.
#[derive(Debug, Clone, PartialEq)]
pub struct Executable {
    pub program: Program,
    /// Element offset of each SPM buffer within the coalesced region.
    pub spm_offsets: Vec<usize>,
    /// Total per-CPE SPM elements used.
    pub spm_used: usize,
}

impl Executable {
    /// Offset of an SPM buffer.
    pub fn spm_offset(&self, id: SpmBufId) -> usize {
        self.spm_offsets[id.0]
    }

    /// Checked variant of [`Executable::spm_offset`] for untrusted programs:
    /// a dangling SPM buffer id is a schedule bug, not a reason to panic.
    pub fn try_spm_offset(&self, id: SpmBufId) -> Option<usize> {
        self.spm_offsets.get(id.0).copied()
    }

    /// Emit C-like source for the program (the offline-compiler output).
    pub fn emit_c(&self) -> String {
        c_emit::emit(self)
    }
}

/// The coalesced allocation of `program`'s SPM buffers, packed in
/// declaration order.
fn packed(program: &Program) -> sw26010::spm::SpmPlanner {
    let mut planner = sw26010::spm::SpmPlanner::new();
    for b in program.spm_bufs.iter() {
        planner.alloc(b.len);
    }
    planner
}

/// Whether [`plan`] would accept `program` under `cfg` — the scheduler's
/// capacity filter, answered without taking the program.
pub fn fits(program: &Program, cfg: &MachineConfig) -> bool {
    packed(program).fits(cfg.spm_bytes)
}

/// Plan the coalesced SPM allocation for `program` under `cfg`.
///
/// Buffers are packed in declaration order; the high-water mark must fit in
/// the SPM. A failure here marks the schedule candidate invalid.
pub fn plan(program: Program, cfg: &MachineConfig) -> MachineResult<Executable> {
    if !fits(&program, cfg) {
        return Err(MachineError::SpmOverflow {
            cpe: 0,
            offset: 0,
            len: packed(&program).used(),
            capacity: cfg.spm_elems(),
        });
    }
    let mut planner = sw26010::spm::SpmPlanner::new();
    let spm_offsets = program.spm_bufs.iter().map(|b| planner.alloc(b.len)).collect();
    Ok(Executable { program, spm_offsets, spm_used: planner.used() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop_ir::Program;

    #[test]
    fn plan_packs_in_order() {
        let cfg = MachineConfig::default();
        let mut p = Program::new("t");
        let a = p.spm_buf("a", 100);
        let b = p.spm_buf("b", 50);
        let exe = plan(p, &cfg).unwrap();
        assert_eq!(exe.spm_offset(a), 0);
        assert_eq!(exe.spm_offset(b), 100);
        assert_eq!(exe.spm_used, 150);
    }

    #[test]
    fn plan_rejects_oversized() {
        let cfg = MachineConfig::default();
        let mut p = Program::new("t");
        p.spm_buf("big", cfg.spm_elems() + 1);
        assert!(plan(p, &cfg).is_err());
    }

    #[test]
    fn fits_agrees_with_plan_and_overflow_payload_is_kept() {
        let cfg = MachineConfig::default();
        for len in [cfg.spm_elems() - 1, cfg.spm_elems(), cfg.spm_elems() + 1] {
            let mut p = Program::new("t");
            p.spm_buf("a", 10);
            p.spm_buf("b", len - 10);
            assert_eq!(fits(&p, &cfg), plan(p.clone(), &cfg).is_ok(), "len {len}");
            if let Err(e) = plan(p, &cfg) {
                assert_eq!(
                    e,
                    MachineError::SpmOverflow {
                        cpe: 0,
                        offset: 0,
                        len,
                        capacity: cfg.spm_elems()
                    }
                );
            }
        }
    }

    #[test]
    fn plan_accepts_exact_fit() {
        let cfg = MachineConfig::default();
        let mut p = Program::new("t");
        p.spm_buf("big", cfg.spm_elems());
        assert!(plan(p, &cfg).is_ok());
    }
}
