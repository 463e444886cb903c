//! A complete lowered program: statement tree plus its symbol tables.
//!
//! A [`Program`] is a cheap handle: the tree and the tables sit behind
//! [`Arc`]s, so a clone is a few reference-count bumps and the thousands of
//! candidates a schedule space lowers to share whatever they do not change
//! (DESIGN.md §18 "IR ownership"). Reads go through `Deref` (`&p.body` is a
//! `&Stmt`); writes go through the methods below, which copy a part first
//! only if another handle still shares it.

use std::borrow::Cow;
use std::sync::Arc;

use crate::stmt::{MemBufId, SpmBufId, Stmt};

/// Role of a main-memory buffer with respect to the operator's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRole {
    /// Provided by the caller (operator input).
    Input,
    /// Produced for the caller (operator output).
    Output,
    /// Scratch: packed layouts, im2col matrices, padded boundary copies…
    Temp,
}

/// Declaration of a main-memory buffer. Its name, like an SPM buffer's and
/// a loop variable's, is a `Cow`: the lowerings' literal names are borrowed
/// for free, and only a name built with `format!` owns a heap block.
#[derive(Debug, Clone, PartialEq)]
pub struct MemBufDecl {
    pub name: Cow<'static, str>,
    pub len: usize,
    pub role: MemRole,
}

/// Declaration of an SPM buffer (per-CPE length in elements). Offsets are
/// assigned by the code generator's coalescing allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmBufDecl {
    pub name: Cow<'static, str>,
    pub len: usize,
}

/// Optimisation directives a schedule point attaches to its lowered
/// program: which of the optional DMA-wall passes the optimizer pipeline
/// should run on it. Each is an independent schedule dimension the tuner
/// searches. Double buffering is not one: every program gets it where its
/// twins fit the SPM, unless the prefetch pass is switched off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleHints {
    /// Coalesce strided tile gets into packed, transaction-aligned staging
    /// buffers (one contiguous block per CPE per step).
    pub coalesce: bool,
    /// Broadcast-tile eligible gets: one leader CPE per mesh row/column
    /// pays the DRAM cost, the register-communication bus fans out.
    pub bcast: bool,
}

/// A lowered schedule strategy, ready for optimization / costing /
/// execution.
///
/// Cloning is O(1): the clone shares `name`, `body` and the three tables
/// with the original until one of them is written to. `n_replies` and
/// `hints` are inline, so two programs that differ only there share
/// everything else. Equality and `Debug` look through the `Arc`s at the
/// contents; `Arc::ptr_eq` on a part asks whether two handles share it.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: Arc<str>,
    pub body: Arc<Stmt>,
    pub mem_bufs: Arc<Vec<MemBufDecl>>,
    pub spm_bufs: Arc<Vec<SpmBufDecl>>,
    pub n_replies: usize,
    pub var_names: Arc<Vec<Cow<'static, str>>>,
    pub hints: ScheduleHints,
}

impl Program {
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Program {
            name: name.into(),
            body: Arc::new(Stmt::Nop),
            mem_bufs: Arc::default(),
            spm_bufs: Arc::default(),
            n_replies: 0,
            var_names: Arc::default(),
            hints: ScheduleHints::default(),
        }
    }

    /// The statement tree, for in-place editing. A uniquely owned tree (a
    /// freshly lowered program) is edited where it is; a shared one is
    /// copied first, so other handles never see the edit.
    pub fn body_mut(&mut self) -> &mut Stmt {
        Arc::make_mut(&mut self.body)
    }

    /// Move the statement tree out, leaving `Nop`: for passes that rebuild
    /// the tree by value and hand it back through [`Program::set_body`].
    /// Copies only if another handle shares the tree.
    pub fn take_body(&mut self) -> Stmt {
        let body = std::mem::replace(&mut self.body, Arc::new(Stmt::Nop));
        Arc::try_unwrap(body).unwrap_or_else(|shared| Stmt::clone(&shared))
    }

    /// Replace the statement tree.
    pub fn set_body(&mut self, body: Stmt) {
        self.body = Arc::new(body);
    }

    /// Addresses of the shared tree and tables (`body`, `mem_bufs`,
    /// `spm_bufs`, `var_names`). Two live handles have equal addresses
    /// exactly when they share all four: one is a clone of the other and
    /// neither wrote to them since, whatever happened to `name`,
    /// `n_replies` and `hints`. Anything computed from the tree and the
    /// tables alone can be computed once per distinct value of this.
    pub fn part_addrs(&self) -> [usize; 4] {
        [
            Arc::as_ptr(&self.body) as usize,
            Arc::as_ptr(&self.mem_bufs) as usize,
            Arc::as_ptr(&self.spm_bufs) as usize,
            Arc::as_ptr(&self.var_names) as usize,
        ]
    }

    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Declare a loop variable, returning its id.
    pub fn fresh_var(&mut self, name: impl Into<Cow<'static, str>>) -> usize {
        Arc::make_mut(&mut self.var_names).push(name.into());
        self.var_names.len() - 1
    }

    /// Declare a main-memory buffer.
    pub fn mem_buf(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        len: usize,
        role: MemRole,
    ) -> MemBufId {
        Arc::make_mut(&mut self.mem_bufs).push(MemBufDecl { name: name.into(), len, role });
        MemBufId(self.mem_bufs.len() - 1)
    }

    /// Declare a per-CPE SPM buffer of `len` elements.
    pub fn spm_buf(&mut self, name: impl Into<Cow<'static, str>>, len: usize) -> SpmBufId {
        Arc::make_mut(&mut self.spm_bufs).push(SpmBufDecl { name: name.into(), len });
        SpmBufId(self.spm_bufs.len() - 1)
    }

    /// Allocate a reply-word slot.
    pub fn fresh_reply(&mut self) -> crate::stmt::ReplyId {
        self.n_replies += 1;
        crate::stmt::ReplyId(self.n_replies - 1)
    }

    /// Buffers with a given role.
    pub fn bufs_with_role(&self, role: MemRole) -> Vec<MemBufId> {
        self.mem_bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.role == role)
            .map(|(i, _)| MemBufId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_accumulate() {
        let mut p = Program::new("t");
        let v0 = p.fresh_var("i");
        let v1 = p.fresh_var("j");
        assert_eq!((v0, v1), (0, 1));
        let a = p.mem_buf("in", 100, MemRole::Input);
        let b = p.mem_buf("out", 50, MemRole::Output);
        let t = p.mem_buf("tmp", 10, MemRole::Temp);
        assert_eq!(p.bufs_with_role(MemRole::Input), vec![a]);
        assert_eq!(p.bufs_with_role(MemRole::Output), vec![b]);
        assert_eq!(p.bufs_with_role(MemRole::Temp), vec![t]);
        p.spm_buf("x", 128);
        p.spm_buf("y", 64);
        assert_eq!(p.spm_bufs.len(), 2);
        let r = p.fresh_reply();
        assert_eq!(r.0, 0);
        assert_eq!(p.n_replies, 1);
        assert_eq!(p.n_vars(), 2);
    }
}
