//! The per-CPE scratch pad memory (SPM / LDM).
//!
//! Each CPE owns 64 KB of software-managed local store. There is no hardware
//! cache: every byte present in the SPM was put there explicitly by a DMA
//! transfer or a store, which is why the code generator must plan SPM buffer
//! allocation (the paper's "single coalesced region", Sec. 4.7). The model
//! bound-checks every access so that an allocation plan exceeding 64 KB is a
//! hard error, mirroring the validity filtering the scheduler performs.

use std::borrow::Cow;

use crate::error::{MachineError, MachineResult};
use crate::ELEM_BYTES;

/// One CPE's scratch pad, element-addressed (f32).
///
/// The backing store is materialised lazily: cost-only tuning never touches
/// SPM *data*, so it never allocates, and a functional run zero-fills only
/// the elements its plan uses ([`Spm::reserve`]) instead of all 64 KB per
/// CPE — 4 MB per core group. Storage grows, zero-filled, to cover each
/// write. Bounds are always checked against the full capacity, and reads of
/// never-written storage observe zeros.
#[derive(Debug, Clone)]
pub struct Spm {
    cpe: usize,
    capacity: usize,
    data: Vec<f32>,
}

impl Spm {
    /// Create an SPM of `capacity_bytes` for CPE `cpe`, with no backing
    /// store until something is written or reserved.
    pub fn new(cpe: usize, capacity_bytes: usize) -> Self {
        Spm { cpe, capacity: capacity_bytes / ELEM_BYTES, data: Vec::new() }
    }

    /// Zero-fill the backing store up to `len` elements (clamped to the
    /// capacity), so reads and writes below it never grow it.
    pub fn reserve(&mut self, len: usize) {
        let len = len.min(self.capacity);
        if self.data.len() < len {
            self.data.resize(len, 0.0);
        }
    }

    /// Capacity in f32 elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Read-only view of a range: borrowed where it has been written or
    /// reserved, zero-extended past that.
    pub fn slice(&self, offset: usize, len: usize) -> MachineResult<Cow<'_, [f32]>> {
        self.check(offset, len)?;
        let end = offset + len;
        if end <= self.data.len() {
            return Ok(Cow::Borrowed(&self.data[offset..end]));
        }
        let mut out = vec![0.0; len];
        if offset < self.data.len() {
            let stored = &self.data[offset..];
            out[..stored.len()].copy_from_slice(stored);
        }
        Ok(Cow::Owned(out))
    }

    /// Mutable view of a range.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> MachineResult<&mut [f32]> {
        self.check(offset, len)?;
        self.reserve(offset + len);
        Ok(&mut self.data[offset..offset + len])
    }

    /// Load a single element.
    pub fn load(&self, offset: usize) -> MachineResult<f32> {
        self.check(offset, 1)?;
        Ok(self.data.get(offset).copied().unwrap_or(0.0))
    }

    /// Store a single element.
    pub fn store(&mut self, offset: usize, v: f32) -> MachineResult<()> {
        self.slice_mut(offset, 1)?[0] = v;
        Ok(())
    }

    /// Zero a range (used by lightweight padding of auxiliary buffers).
    pub fn zero(&mut self, offset: usize, len: usize) -> MachineResult<()> {
        self.slice_mut(offset, len)?.fill(0.0);
        Ok(())
    }

    /// Fail unless `len` elements from `offset` lie within the capacity.
    pub(crate) fn check(&self, offset: usize, len: usize) -> MachineResult<()> {
        if offset + len > self.capacity {
            return Err(MachineError::SpmOverflow {
                cpe: self.cpe,
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

/// A simple bump allocator for planning SPM layouts at code-generation time.
///
/// The code generator coalesces all SPM buffers of a schedule into one
/// region; this planner hands out element offsets and reports the high-water
/// mark so the scheduler can reject candidates that exceed the SPM.
#[derive(Debug, Clone, Default)]
pub struct SpmPlanner {
    next: usize,
    high_water: usize,
}

impl SpmPlanner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `len` elements, returning the offset.
    pub fn alloc(&mut self, len: usize) -> usize {
        let off = self.next;
        self.next += len;
        self.high_water = self.high_water.max(self.next);
        off
    }

    /// Total elements reserved so far.
    pub fn used(&self) -> usize {
        self.high_water
    }

    /// Bytes reserved so far.
    pub fn used_bytes(&self) -> usize {
        self.high_water * ELEM_BYTES
    }

    /// Whether the plan fits in an SPM of `capacity_bytes`.
    pub fn fits(&self, capacity_bytes: usize) -> bool {
        self.used_bytes() <= capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let mut spm = Spm::new(0, 1024);
        assert_eq!(spm.capacity(), 256);
        spm.store(10, 3.5).unwrap();
        assert_eq!(spm.load(10).unwrap(), 3.5);
    }

    #[test]
    fn overflow_detected() {
        let mut spm = Spm::new(7, 64);
        let err = spm.store(16, 1.0).unwrap_err();
        match err {
            MachineError::SpmOverflow { cpe, .. } => assert_eq!(cpe, 7),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(spm.slice(12, 8).is_err());
    }

    #[test]
    fn zero_range() {
        let mut spm = Spm::new(0, 64);
        for i in 0..16 {
            spm.store(i, 1.0).unwrap();
        }
        spm.zero(4, 8).unwrap();
        assert_eq!(spm.slice(0, 16).unwrap()[3], 1.0);
        assert!(spm.slice(4, 8).unwrap().iter().all(|&x| x == 0.0));
        assert_eq!(spm.load(12).unwrap(), 1.0);
    }

    #[test]
    fn storage_grows_on_write_and_reads_zero_past_it() {
        let mut spm = Spm::new(2, 1024);
        assert_eq!(spm.capacity(), 256);
        // Reads before any write observe zeros and enforce bounds.
        assert_eq!(spm.load(100).unwrap(), 0.0);
        assert!(spm.load(256).is_err());
        assert_eq!(&*spm.slice(0, 4).unwrap(), &[0.0; 4]);
        assert!(spm.slice(250, 8).is_err());
        spm.store(10, 2.5).unwrap();
        assert_eq!(spm.data.len(), 11, "a write grows storage to cover it, no further");
        assert_eq!(spm.load(10).unwrap(), 2.5);
        // A range straddling the end of storage reads zeros past it.
        assert_eq!(&*spm.slice(8, 4).unwrap(), &[0.0, 0.0, 2.5, 0.0]);
        spm.reserve(64);
        assert_eq!(spm.data.len(), 64);
        assert_eq!(spm.load(10).unwrap(), 2.5, "reserving keeps what was written");
        spm.reserve(1 << 20);
        assert_eq!(spm.data.len(), 256, "reserving stops at the capacity");
    }

    #[test]
    fn planner_tracks_high_water() {
        let mut p = SpmPlanner::new();
        let a = p.alloc(100);
        let b = p.alloc(28);
        assert_eq!(a, 0);
        assert_eq!(b, 100);
        assert_eq!(p.used(), 128);
        assert_eq!(p.used_bytes(), 512);
        assert!(p.fits(512));
        assert!(!p.fits(511));
    }
}
