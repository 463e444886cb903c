//! Code generation: SPM allocation planning and C source emission.
//!
//! The paper's code generator "analyzes the memory usage information in the
//! IR and allocates all buffers into a single coalesced region" (Sec. 4.7).
//! [`plan`] performs that allocation for the simulated machine and rejects
//! programs that exceed the 64 KB scratch pad — the same capacity filter
//! ([`fits`]) the scheduler applies while enumerating candidates.
//!
//! The paper hands the code generator the schedules its performance model
//! picks, not the space (Fig. 3). So an [`Executable`] is a handle that is
//! built when first read: the scheduler gives every candidate a deferred one,
//! and the double-buffer rewrite and the allocation run for the candidates
//! the tuner measures (on a copy it drops), validates or emits.

pub mod c_emit;

use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use sw26010::{MachineConfig, MachineError, MachineResult, ELEM_BYTES};
use swatop_ir::{Program, SpmBufId};

use crate::optimizer::prefetch::apply_double_buffering;

/// A program with a concrete SPM allocation, ready to execute or emit.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub program: Program,
    /// Element offset of each SPM buffer within the coalesced region.
    pub spm_offsets: Vec<usize>,
    /// Total per-CPE SPM elements used.
    pub spm_used: usize,
}

impl Planned {
    /// Offset of an SPM buffer.
    pub fn spm_offset(&self, id: SpmBufId) -> usize {
        self.spm_offsets[id.0]
    }

    /// Checked variant of [`Planned::spm_offset`] for untrusted programs:
    /// a dangling SPM buffer id is a schedule bug, not a reason to panic.
    pub fn try_spm_offset(&self, id: SpmBufId) -> Option<usize> {
        self.spm_offsets.get(id.0).copied()
    }

    /// Emit C-like source for the program (the offline-compiler output).
    pub fn emit_c(&self) -> String {
        c_emit::emit(self)
    }
}

/// A handle to a [`Planned`] program that is built when it is first read.
///
/// The scheduler hands every candidate one, the tuner reads the few it
/// validates or emits and measures `transient` copies — so the double-buffer
/// rewrite and the SPM layout run for those, not for the space. The handle
/// is in one of three states: *deferred* (a source program and whether to
/// double-buffer it; owns no tree), *built* (every read goes through
/// [`Deref`], which builds on first use and is a load afterwards), or
/// *edited* (a write through [`DerefMut`] builds first, then changes the
/// built form in place; the source is no longer consulted). `Clone` copies
/// the state as it is, `PartialEq` and `Debug` read — and so build — both
/// sides, which makes two handles equal exactly when their planned forms are.
#[derive(Clone)]
pub struct Executable {
    source: Program,
    double_buffer: bool,
    /// Inline, not boxed: a build allocates what `Planned` owns and nothing
    /// for the handle.
    built: OnceLock<Planned>,
}

impl Executable {
    /// A handle that plans `source` — after
    /// [`apply_double_buffering`] when `double_buffer` — on first read. The
    /// caller vouches that the result fits the scratch pad ([`fits`] on the
    /// source, plus its twins when double-buffered): a deferred build cannot
    /// refuse.
    pub fn deferred(source: Program, double_buffer: bool) -> Self {
        Executable { source, double_buffer, built: OnceLock::new() }
    }

    /// Whether the planned form exists yet.
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }

    /// The planned form, built now if this is the first read.
    pub(crate) fn planned(&self) -> &Planned {
        self.built.get_or_init(|| {
            let program = self.source.clone();
            layout(if self.double_buffer { apply_double_buffering(program) } else { program })
        })
    }

    /// What a measurement reads and drops: this handle if it is built, else
    /// an unbuilt one over the same source (handle clones only).
    pub(crate) fn transient(&self) -> Cow<'_, Executable> {
        if self.is_built() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(Executable::deferred(self.source.clone(), self.double_buffer))
        }
    }
}

impl Deref for Executable {
    type Target = Planned;

    fn deref(&self) -> &Planned {
        self.planned()
    }
}

impl DerefMut for Executable {
    fn deref_mut(&mut self) -> &mut Planned {
        self.planned();
        self.built.get_mut().expect("built by the line above")
    }
}

impl PartialEq for Executable {
    fn eq(&self, other: &Self) -> bool {
        self.planned() == other.planned()
    }
}

impl fmt::Debug for Executable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.planned().fmt(f)
    }
}

/// The coalesced allocation of `program`'s SPM buffers, packed in
/// declaration order: the one pass behind [`plan`] and a deferred build.
fn layout(program: Program) -> Planned {
    let mut planner = sw26010::spm::SpmPlanner::new();
    let spm_offsets = program.spm_bufs.iter().map(|b| planner.alloc(b.len)).collect();
    Planned { program, spm_offsets, spm_used: planner.used() }
}

/// Whether `elems` per-CPE SPM elements fit the scratch pad of `cfg`.
fn within(elems: usize, cfg: &MachineConfig) -> bool {
    elems * ELEM_BYTES <= cfg.spm_bytes
}

/// Whether `program`'s SPM buffers and `extra` further elements (the twins
/// double buffering would add) fit the scratch pad of `cfg`.
pub(crate) fn fits_with(program: &Program, extra: usize, cfg: &MachineConfig) -> bool {
    within(program.spm_bufs.iter().map(|b| b.len).sum::<usize>() + extra, cfg)
}

/// Whether [`plan`] would accept `program` under `cfg` — the scheduler's
/// capacity filter, answered without taking the program.
pub fn fits(program: &Program, cfg: &MachineConfig) -> bool {
    fits_with(program, 0, cfg)
}

/// Plan the coalesced SPM allocation for `program` under `cfg`.
///
/// Buffers are packed in declaration order; the high-water mark must fit in
/// the SPM. A failure here marks the schedule candidate invalid. The handle
/// that comes back is already built.
pub fn plan(program: Program, cfg: &MachineConfig) -> MachineResult<Executable> {
    let planned = layout(program);
    if !within(planned.spm_used, cfg) {
        return Err(MachineError::SpmOverflow {
            cpe: 0,
            offset: 0,
            len: planned.spm_used,
            capacity: cfg.spm_elems(),
        });
    }
    Ok(Executable {
        source: planned.program.clone(),
        double_buffer: false,
        built: OnceLock::from(planned),
    })
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
