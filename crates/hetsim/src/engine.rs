//! The kernel execution abstraction.
//!
//! Benchmarks are written once against [`Engine`] and run unmodified on
//! every target: the CPU model, an unprotected accelerator, or an
//! accelerator behind the CapChecker or a baseline protection mechanism.
//! An engine performs *functional* memory accesses (so protection faults
//! really happen) and hands each operation to a [`Record`] for the timing
//! models.
//!
//! Every target reaches memory through one engine, [`MemEngine`], and
//! differs only in the [`Gate`] in front of it: [`Ungated`] here
//! ([`DirectEngine`]), and the CPU's capability registers or the
//! accelerator's protection mechanism in the `capchecker` crate. What the
//! engine records into is a type parameter too: a [`Trace`] by default,
//! which keeps every op for any timing model, or one of the costers in
//! [`timing`](crate::timing), which cost each op as it happens and keep
//! nothing else.

use crate::bus::{AccessKind, Denial};
use crate::memory::{MemError, TaggedMemory};
use crate::trace::{Trace, TraceOp};
use std::error::Error;
use std::fmt;

/// A fault encountered while executing a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// The protection path refused the access.
    Denied(Denial),
    /// The access left simulated physical memory.
    Mem(MemError),
    /// The engine stopped making progress and a watchdog expired. `ops`
    /// is the operation budget the task had burned when it was aborted.
    Hung {
        /// Watchdog operation budget consumed at abort time.
        ops: u64,
    },
    /// A transient interconnect fault (for example a dropped beat): the
    /// transfer aborted cleanly and a retry is expected to succeed.
    Transient {
        /// Which fault aborted the transfer.
        kind: obs::FaultKind,
    },
}

impl fmt::Display for ExecFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecFault::Denied(d) => write!(f, "{d}"),
            ExecFault::Mem(e) => write!(f, "{e}"),
            ExecFault::Hung { ops } => write!(f, "engine hung (watchdog expired after {ops} ops)"),
            ExecFault::Transient { kind } => write!(f, "transient fault: {kind}"),
        }
    }
}

impl Error for ExecFault {}

impl From<Denial> for ExecFault {
    fn from(d: Denial) -> ExecFault {
        ExecFault::Denied(d)
    }
}

impl From<MemError> for ExecFault {
    fn from(e: MemError) -> ExecFault {
        ExecFault::Mem(e)
    }
}

/// Where a kernel runs: loads, stores, computes, and bulk-copies against a
/// task's numbered objects (buffers).
///
/// Offsets are object-relative; the engine owns the object→address binding,
/// the protection path, and what records the ops.
pub trait Engine {
    /// Loads `size` (≤ 8) bytes at `offset` within object `obj`.
    ///
    /// # Errors
    ///
    /// [`ExecFault::Denied`] when the protection path refuses the access,
    /// [`ExecFault::Mem`] when it leaves physical memory.
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault>;

    /// Stores the low `size` (≤ 8) bytes of `value` at `offset` in `obj`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault>;

    /// Records `units` of data-path work between memory operations.
    fn compute(&mut self, units: u64);

    /// Bulk-copies `len` bytes from `src_obj@src_off` to `dst_obj@dst_off`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        // Default: element-wise via load/store (engines with a faster bulk
        // path override this).
        for i in 0..len {
            let b = self.load(src_obj, src_off + i, 1)?;
            self.store(dst_obj, dst_off + i, 1, b)?;
        }
        Ok(())
    }

    /// Loads a `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u32(&mut self, obj: usize, index: u64) -> Result<u32, ExecFault> {
        Ok(self.load(obj, index * 4, 4)? as u32)
    }

    /// Stores a `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u32(&mut self, obj: usize, index: u64, value: u32) -> Result<(), ExecFault> {
        self.store(obj, index * 4, 4, u64::from(value))
    }

    /// Loads an `i32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_i32(&mut self, obj: usize, index: u64) -> Result<i32, ExecFault> {
        Ok(self.load_u32(obj, index)? as i32)
    }

    /// Stores an `i32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_i32(&mut self, obj: usize, index: u64, value: i32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value as u32)
    }

    /// Loads an `f32` (stored as its IEEE-754 bit pattern).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_f32(&mut self, obj: usize, index: u64) -> Result<f32, ExecFault> {
        Ok(f32::from_bits(self.load_u32(obj, index)?))
    }

    /// Stores an `f32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_f32(&mut self, obj: usize, index: u64, value: f32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value.to_bits())
    }

    /// Loads a `u64`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u64(&mut self, obj: usize, index: u64) -> Result<u64, ExecFault> {
        self.load(obj, index * 8, 8)
    }

    /// Stores a `u64`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u64(&mut self, obj: usize, index: u64, value: u64) -> Result<(), ExecFault> {
        self.store(obj, index * 8, 8, value)
    }

    /// Loads a byte.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u8(&mut self, obj: usize, offset: u64) -> Result<u8, ExecFault> {
        Ok(self.load(obj, offset, 1)? as u8)
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u8(&mut self, obj: usize, offset: u64, value: u8) -> Result<(), ExecFault> {
        self.store(obj, offset, 1, u64::from(value))
    }
}

/// Overrides the typed [`Engine`] helpers (`load_u32`, `store_f32`, …)
/// inside a concrete `impl Engine for …` block with bodies identical to
/// the trait defaults.
///
/// Kernels drive engines through `&mut dyn Engine`, so a *default* typed
/// helper is a vtable call whose body makes a second vtable call into
/// `load`/`store`. Overridden in the concrete impl, `self.load(..)`
/// resolves statically and the whole chain — address computation,
/// protection check, memory access, trace push — inlines behind a single
/// indirect call per kernel operation. This is purely a dispatch change:
/// the expanded bodies are the trait defaults verbatim, so traces,
/// verdicts, and faults are unchanged.
#[macro_export]
macro_rules! impl_typed_engine_helpers {
    () => {
        #[inline]
        fn load_u32(&mut self, obj: usize, index: u64) -> Result<u32, $crate::ExecFault> {
            Ok(self.load(obj, index * 4, 4)? as u32)
        }

        #[inline]
        fn store_u32(
            &mut self,
            obj: usize,
            index: u64,
            value: u32,
        ) -> Result<(), $crate::ExecFault> {
            self.store(obj, index * 4, 4, u64::from(value))
        }

        #[inline]
        fn load_i32(&mut self, obj: usize, index: u64) -> Result<i32, $crate::ExecFault> {
            Ok(self.load_u32(obj, index)? as i32)
        }

        #[inline]
        fn store_i32(
            &mut self,
            obj: usize,
            index: u64,
            value: i32,
        ) -> Result<(), $crate::ExecFault> {
            self.store_u32(obj, index, value as u32)
        }

        #[inline]
        fn load_f32(&mut self, obj: usize, index: u64) -> Result<f32, $crate::ExecFault> {
            Ok(f32::from_bits(self.load_u32(obj, index)?))
        }

        #[inline]
        fn store_f32(
            &mut self,
            obj: usize,
            index: u64,
            value: f32,
        ) -> Result<(), $crate::ExecFault> {
            self.store_u32(obj, index, value.to_bits())
        }

        #[inline]
        fn load_u64(&mut self, obj: usize, index: u64) -> Result<u64, $crate::ExecFault> {
            self.load(obj, index * 8, 8)
        }

        #[inline]
        fn store_u64(
            &mut self,
            obj: usize,
            index: u64,
            value: u64,
        ) -> Result<(), $crate::ExecFault> {
            self.store(obj, index * 8, 8, value)
        }

        #[inline]
        fn load_u8(&mut self, obj: usize, offset: u64) -> Result<u8, $crate::ExecFault> {
            Ok(self.load(obj, offset, 1)? as u8)
        }

        #[inline]
        fn store_u8(
            &mut self,
            obj: usize,
            offset: u64,
            value: u8,
        ) -> Result<(), $crate::ExecFault> {
            self.store(obj, offset, 1, u64::from(value))
        }
    };
}

/// One buffer's placement in physical memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferRegion {
    /// First byte of the buffer.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl BufferRegion {
    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.size
    }
}

/// The object→address binding for one task.
#[derive(Clone, Debug, Default)]
pub struct TaskLayout {
    /// Buffer regions, indexed by the kernel's object numbers.
    pub buffers: Vec<BufferRegion>,
}

impl TaskLayout {
    /// Builds a layout from `(base, size)` pairs.
    #[must_use]
    pub fn new(regions: impl IntoIterator<Item = (u64, u64)>) -> TaskLayout {
        TaskLayout {
            buffers: regions
                .into_iter()
                .map(|(base, size)| BufferRegion { base, size })
                .collect(),
        }
    }

    /// Physical address of `offset` within object `obj`.
    ///
    /// Note: deliberately does *not* bounds-check. The address computation
    /// in a real accelerator is arbitrary arithmetic; it is the protection
    /// path's job to reject the result. A buggy or malicious kernel indexes
    /// past a buffer and the resulting address simply lands wherever it
    /// lands.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not a valid object number for this task.
    #[must_use]
    #[inline]
    pub fn address(&self, obj: usize, offset: u64) -> u64 {
        self.buffers[obj].base.wrapping_add(offset)
    }
}

/// What stands between a kernel and memory: asked once per access (once
/// per side of a bulk copy) before the engine touches memory.
///
/// A gate is the only thing that differs between the ways a kernel
/// reaches memory — no check at all, the CHERI CPU's capability
/// registers, or the accelerator DMA path's protection mechanism. The
/// layout, the memory access, tag-clearing writes and the trace belong
/// to [`MemEngine`].
pub trait Gate {
    /// Admits an access of `len` bytes at `addr` on object `obj`,
    /// returning the physical address it reaches.
    ///
    /// # Errors
    ///
    /// [`ExecFault::Denied`] when the access is refused.
    fn pass(&mut self, obj: usize, addr: u64, len: u64, kind: AccessKind)
        -> Result<u64, ExecFault>;
}

/// The no-op gate: every address is reachable as is.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ungated;

impl Gate for Ungated {
    #[inline]
    fn pass(&mut self, _: usize, addr: u64, _: u64, _: AccessKind) -> Result<u64, ExecFault> {
        Ok(addr)
    }
}

/// Where an engine puts what a kernel did: one call per completed
/// access, copy or run of data-path work, in program order.
///
/// [`Trace`] keeps the ops for any timing model;
/// [`LaneFolder`](crate::timing::LaneFolder) folds them straight into the
/// accelerator event wheel, and
/// [`StreamCoster`](crate::timing::StreamCoster) and
/// [`CpuCoster`](crate::timing::CpuCoster) cost them as they arrive. The
/// engine is generic over its recorder, so the recorder an engine does
/// not use costs it nothing.
pub trait Record {
    /// A memory access of `bytes` at physical `addr` on object `object`.
    fn mem(&mut self, addr: u64, bytes: u16, write: bool, object: u16);
    /// `units` of data-path work.
    fn compute(&mut self, units: u64);
    /// A bulk copy of `bytes` from physical `src` to physical `dst`.
    fn copy(&mut self, src: u64, dst: u64, bytes: u64);
}

impl Record for Trace {
    #[inline]
    fn mem(&mut self, addr: u64, bytes: u16, write: bool, object: u16) {
        self.push(TraceOp::Mem {
            addr,
            bytes,
            write,
            object,
        });
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        self.push(TraceOp::Compute(units));
    }

    #[inline]
    fn copy(&mut self, src: u64, dst: u64, bytes: u64) {
        self.push(TraceOp::Copy { src, dst, bytes });
    }
}

/// The engine over [`TaggedMemory`]: each access resolves its object
/// offset through the task's layout, passes the gate, touches memory and
/// is handed to the recorder `R` (a [`Trace`] unless the engine was built
/// [`MemEngine::recording`] into something else). Writes clear the
/// capability tags they cover, so no data path can leave a valid
/// capability behind. The first access any gate refuses is latched, so a
/// kernel that swallows the fault is still reported denied.
#[derive(Debug)]
pub struct MemEngine<'m, G, R: Record = Trace> {
    mem: &'m mut TaggedMemory,
    layout: TaskLayout,
    gate: G,
    rec: R,
    first_denial: Option<Denial>,
}

/// The simplest engine: direct, unprotected access to memory, tracing as it
/// goes. This is the *golden* executor (and what a CHERI-unaware system
/// with no IOMMU does — every address is reachable).
pub type DirectEngine<'m> = MemEngine<'m, Ungated>;

impl<'m> DirectEngine<'m> {
    /// Creates an ungated engine over `mem` with the given object binding.
    pub fn new(mem: &'m mut TaggedMemory, layout: TaskLayout) -> DirectEngine<'m> {
        MemEngine::gated(mem, layout, Ungated)
    }
}

impl<'m, G: Gate> MemEngine<'m, G> {
    /// Creates an engine over `mem` with the given object binding, every
    /// access of which must pass `gate`, recording a [`Trace`].
    pub fn gated(mem: &'m mut TaggedMemory, layout: TaskLayout, gate: G) -> MemEngine<'m, G> {
        MemEngine::recording(mem, layout, gate, Trace::new())
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.rec
    }

    /// Consumes the engine, returning the trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.rec
    }
}

impl<'m, G: Gate, R: Record> MemEngine<'m, G, R> {
    /// Creates an engine over `mem` with the given object binding, every
    /// access of which must pass `gate`, recording into `rec`.
    pub fn recording(
        mem: &'m mut TaggedMemory,
        layout: TaskLayout,
        gate: G,
        rec: R,
    ) -> MemEngine<'m, G, R> {
        MemEngine {
            mem,
            layout,
            gate,
            rec,
            first_denial: None,
        }
    }

    /// The first access the gate refused, if any (the latched exception),
    /// whether or not the kernel propagated the fault.
    #[must_use]
    pub fn first_denial(&self) -> Option<Denial> {
        self.first_denial
    }

    /// Consumes the engine, handing back its recorder.
    #[must_use]
    pub fn into_recorder(self) -> R {
        self.rec
    }

    #[inline]
    fn pass(
        &mut self,
        obj: usize,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, ExecFault> {
        let addr = self.layout.address(obj, offset);
        self.gate.pass(obj, addr, len, kind).inspect_err(|fault| {
            if let ExecFault::Denied(denial) = fault {
                self.first_denial.get_or_insert(*denial);
            }
        })
    }
}

impl<G: Gate, R: Record> Engine for MemEngine<'_, G, R> {
    crate::impl_typed_engine_helpers!();

    #[inline]
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        let addr = self.pass(obj, offset, u64::from(size), AccessKind::Read)?;
        let v = self.mem.read_uint(addr, size)?;
        self.rec.mem(addr, u16::from(size), false, obj as u16);
        Ok(v)
    }

    #[inline]
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        let addr = self.pass(obj, offset, u64::from(size), AccessKind::Write)?;
        self.mem.write_uint(addr, size, value)?;
        self.rec.mem(addr, u16::from(size), true, obj as u16);
        Ok(())
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        if units > 0 {
            self.rec.compute(units);
        }
    }

    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        let src = self.pass(src_obj, src_off, len, AccessKind::Read)?;
        let dst = self.pass(dst_obj, dst_off, len, AccessKind::Write)?;
        self.mem.copy_within(src, dst, len)?;
        self.rec.copy(src, dst, len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_engine_reads_what_it_wrote() {
        let mut mem = TaggedMemory::new(4096);
        let layout = TaskLayout::new([(0x100, 64), (0x200, 64)]);
        let mut eng = DirectEngine::new(&mut mem, layout);
        eng.store_u32(0, 3, 0xabcd).unwrap();
        assert_eq!(eng.load_u32(0, 3).unwrap(), 0xabcd);
        eng.store_f32(1, 0, 1.5).unwrap();
        assert_eq!(eng.load_f32(1, 0).unwrap(), 1.5);
    }

    #[test]
    fn trace_records_everything() {
        let mut mem = TaggedMemory::new(4096);
        let mut eng = DirectEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        eng.compute(10);
        eng.store_u64(0, 0, 7).unwrap();
        eng.compute(5);
        eng.load_u64(0, 0).unwrap();
        let t = eng.into_trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.compute_units(), 15);
        assert_eq!(t.mem_bytes(), 16);
    }

    #[test]
    fn copy_moves_data_and_traces_once() {
        let mut mem = TaggedMemory::new(4096);
        mem.write_bytes(0x100, &[9u8; 32]).unwrap();
        let mut eng = DirectEngine::new(&mut mem, TaskLayout::new([(0x100, 64), (0x300, 64)]));
        eng.copy(1, 0, 0, 0, 32).unwrap();
        assert_eq!(eng.trace().mem_ops(), 1);
        drop(eng);
        let mut buf = [0u8; 32];
        mem.read_bytes(0x300, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 32]);
    }

    #[test]
    fn unprotected_engine_reaches_anything() {
        // The "no method" column of Table 1: an out-of-object offset lands
        // in someone else's memory and succeeds.
        let mut mem = TaggedMemory::new(4096);
        mem.write_bytes(0x200, &[0x5a]).unwrap();
        let mut eng = DirectEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let stolen = eng.load_u8(0, 0x100).unwrap(); // offset 0x100 past a 64-byte buffer
        assert_eq!(stolen, 0x5a);
    }

    #[test]
    fn faults_surface_mem_errors() {
        let mut mem = TaggedMemory::new(64);
        let mut eng = DirectEngine::new(&mut mem, TaskLayout::new([(0, 64)]));
        let err = eng.load(0, 1 << 20, 4).unwrap_err();
        assert!(matches!(err, ExecFault::Mem(MemError::OutOfRange { .. })));
    }
}
