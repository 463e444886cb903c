//! Main-memory arena shared by the MPE and the CPE cluster.
//!
//! The real machine exposes a flat DDR3 address space per core group. The
//! model keeps a single `Vec<f32>` arena; buffers are carved out by a bump
//! allocator and identified by [`BufferId`]. Addresses used by DMA requests
//! are absolute element offsets into the arena, so a generated schedule that
//! computes a wrong offset reads or writes *somewhere else* — exactly like
//! the hardware — and is caught by functional tests rather than masked.

use crate::error::{MachineError, MachineResult};

/// Handle to a buffer allocated in main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub usize);

#[derive(Debug, Clone)]
struct BufferMeta {
    base: usize,
    len: usize,
    name: String,
}

/// The main-memory arena (element-addressed, f32).
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    data: Vec<f32>,
    buffers: Vec<BufferMeta>,
    /// Total allocated elements, including virtual (cost-only) buffers whose
    /// backing store was never materialised.
    end: usize,
}

impl MainMemory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zero-initialised buffer of `len` f32 elements.
    pub fn alloc(&mut self, name: &str, len: usize) -> BufferId {
        let id = self.alloc_lazy(name, len);
        self.ensure(self.end);
        id
    }

    /// Allocate a buffer *address range* without materialising its backing
    /// store. Cost-only simulation only needs bases and bounds; skipping the
    /// zero-fill keeps per-candidate machine construction cheap in the
    /// autotuner. The range materialises (zeroed) on first write.
    pub fn alloc_lazy(&mut self, name: &str, len: usize) -> BufferId {
        let base = self.end;
        self.end += len;
        self.buffers.push(BufferMeta { base, len, name: name.to_string() });
        BufferId(self.buffers.len() - 1)
    }

    fn ensure(&mut self, upto: usize) {
        if self.data.len() < upto {
            self.data.resize(upto, 0.0);
        }
    }

    /// Allocate and fill from a slice.
    pub fn alloc_from(&mut self, name: &str, src: &[f32]) -> BufferId {
        let id = self.alloc(name, src.len());
        self.write(id, 0, src).expect("fresh buffer write cannot fail");
        id
    }

    /// Absolute element offset of the start of a buffer.
    pub fn base(&self, id: BufferId) -> usize {
        self.buffers[id.0].base
    }

    /// Length in elements of a buffer.
    pub fn len_of(&self, id: BufferId) -> usize {
        self.buffers[id.0].len
    }

    /// Read a whole buffer. The buffer must be materialised (allocated with
    /// [`MainMemory::alloc`] or written at least once).
    pub fn buffer(&self, id: BufferId) -> &[f32] {
        let m = &self.buffers[id.0];
        &self.data[m.base..m.base + m.len]
    }

    /// Mutable view of a whole buffer (materialises lazy storage).
    pub fn buffer_mut(&mut self, id: BufferId) -> &mut [f32] {
        let m = self.buffers[id.0].clone();
        self.ensure(m.base + m.len);
        &mut self.data[m.base..m.base + m.len]
    }

    /// Copy `dst.len()` elements out of a buffer starting at `offset`
    /// (relative to the buffer base).
    pub fn read(&self, id: BufferId, offset: usize, dst: &mut [f32]) -> MachineResult<()> {
        let m = &self.buffers[id.0];
        self.check(m, offset, dst.len())?;
        if m.base + offset + dst.len() > self.data.len() {
            return Err(MachineError::Invalid(format!(
                "read of buffer '{}' before any write (lazy cost-only storage)",
                m.name
            )));
        }
        dst.copy_from_slice(&self.data[m.base + offset..m.base + offset + dst.len()]);
        Ok(())
    }

    /// Copy `src` into a buffer starting at `offset` (materialises lazy
    /// storage).
    pub fn write(&mut self, id: BufferId, offset: usize, src: &[f32]) -> MachineResult<()> {
        let m = self.buffers[id.0].clone();
        self.check(&m, offset, src.len())?;
        self.ensure(m.base + m.len);
        self.data[m.base + offset..m.base + offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Raw arena access by absolute element offset (used by the DMA engine).
    pub(crate) fn arena(&self) -> &[f32] {
        &self.data
    }

    pub(crate) fn arena_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Validate that an absolute range lies within the arena (virtual
    /// buffers included).
    pub fn check_abs(&self, offset: usize, len: usize) -> MachineResult<()> {
        if offset + len > self.end {
            return Err(MachineError::MainMemoryOutOfBounds { offset, len, size: self.end });
        }
        Ok(())
    }

    fn check(&self, m: &BufferMeta, offset: usize, len: usize) -> MachineResult<()> {
        if offset + len > m.len {
            return Err(MachineError::MainMemoryOutOfBounds {
                offset: m.base + offset,
                len,
                size: m.base + m.len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut mem = MainMemory::new();
        let a = mem.alloc("a", 8);
        let b = mem.alloc_from("b", &[1.0, 2.0, 3.0]);
        assert_eq!(mem.base(a), 0);
        assert_eq!(mem.base(b), 8);
        assert_eq!(mem.len_of(b), 3);

        mem.write(a, 2, &[9.0, 8.0]).unwrap();
        let mut out = [0.0; 4];
        mem.read(a, 1, &mut out).unwrap();
        assert_eq!(out, [0.0, 9.0, 8.0, 0.0]);
        assert_eq!(mem.buffer(b), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut mem = MainMemory::new();
        let a = mem.alloc("a", 4);
        let err = mem.write(a, 3, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MachineError::MainMemoryOutOfBounds { .. }));
        let mut dst = [0.0; 5];
        assert!(mem.read(a, 0, &mut dst).is_err());
    }

    #[test]
    fn lazy_alloc_tracks_bounds_without_backing_store() {
        let mut mem = MainMemory::new();
        let a = mem.alloc_lazy("a", 1000);
        assert_eq!(mem.base(a), 0);
        assert_eq!(mem.len_of(a), 1000);
        assert!(mem.check_abs(0, 1000).is_ok());
        assert!(mem.check_abs(500, 501).is_err());
        // First write materialises the whole buffer, zero-filled.
        mem.write(a, 10, &[7.0]).unwrap();
        assert_eq!(mem.buffer(a)[10], 7.0);
        assert_eq!(mem.buffer(a)[9], 0.0);
        // Eager allocation after a lazy one stays disjoint.
        let b = mem.alloc_from("b", &[1.0, 2.0]);
        assert_eq!(mem.base(b), 1000);
        assert_eq!(mem.buffer(b), &[1.0, 2.0]);
        assert_eq!(mem.buffer(a)[10], 7.0);
    }

    #[test]
    fn buffers_are_zero_initialised() {
        let mut mem = MainMemory::new();
        let a = mem.alloc("a", 1000);
        assert!(mem.buffer(a).iter().all(|&x| x == 0.0));
    }
}
