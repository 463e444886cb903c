//! Error type for machine-model operations.

use std::fmt;

/// Errors raised by the machine model. These correspond to conditions that
/// would be silent corruption or a hardware fault on the real chip; the
/// simulator turns them into checkable errors so that generated schedules
/// can be validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// An SPM access (or allocation) exceeded the 64 KB scratch pad.
    SpmOverflow {
        cpe: usize,
        offset: usize,
        len: usize,
        capacity: usize,
    },
    /// A main-memory access fell outside the allocated buffer arena.
    MainMemoryOutOfBounds { offset: usize, len: usize, size: usize },
    /// A DMA request was malformed (zero blocks, stride smaller than block…).
    BadDmaRequest(String),
    /// A reply word was waited on for more completions than were issued.
    ReplyUnderflow { expected: usize, issued: usize },
    /// A GEMM primitive was invoked with parameters violating its contract
    /// (dimension not divisible by the mesh, vector dim not divisible by 4…).
    BadKernelArgs(String),
    /// A transient DMA transaction failure injected by the machine's
    /// [`FaultPlan`](crate::fault::FaultPlan): the engine dropped the batch.
    /// Unlike the structural errors above, retrying the run may succeed.
    DmaFault { batch: u64 },
    /// Generic invariant violation inside generated code.
    Invalid(String),
}

impl MachineError {
    /// Is this error transient — i.e. may the same operation succeed when
    /// retried? Structural errors (overflows, malformed requests, contract
    /// violations) are permanent; injected DMA faults are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, MachineError::DmaFault { .. })
    }

    /// Is this error a *deterministic* property of the program — guaranteed
    /// to recur on any fault-free re-execution? Retrying one of these burns
    /// budget on an error that cannot go away. The one context-dependent
    /// case is [`MachineError::SpmOverflow`]: deterministic on a perfect
    /// machine (the footprint simply doesn't fit) but possibly caused by
    /// injected capacity pressure when a fault plan is active — which is why
    /// retry policies take the fault context into account (see
    /// `swatop::tuner::should_retry`).
    pub fn is_deterministic(&self) -> bool {
        !self.is_transient()
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::SpmOverflow { cpe, offset, len, capacity } => write!(
                f,
                "SPM overflow on CPE {cpe}: access [{offset}, {}) exceeds capacity {capacity} elems",
                offset + len
            ),
            MachineError::MainMemoryOutOfBounds { offset, len, size } => write!(
                f,
                "main-memory access [{offset}, {}) out of bounds (arena size {size} elems)",
                offset + len
            ),
            MachineError::BadDmaRequest(msg) => write!(f, "bad DMA request: {msg}"),
            MachineError::ReplyUnderflow { expected, issued } => write!(
                f,
                "dma_wait expected {expected} completions but only {issued} were issued"
            ),
            MachineError::BadKernelArgs(msg) => write!(f, "bad kernel arguments: {msg}"),
            MachineError::DmaFault { batch } => {
                write!(f, "transient DMA fault: engine dropped batch {batch} (injected)")
            }
            MachineError::Invalid(msg) => write!(f, "invalid machine operation: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Convenience result alias for machine operations.
pub type MachineResult<T> = Result<T, MachineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MachineError::SpmOverflow { cpe: 3, offset: 100, len: 50, capacity: 120 };
        let s = e.to_string();
        assert!(s.contains("CPE 3") && s.contains("150"));
    }
}
