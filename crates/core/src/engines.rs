//! The gates that stand in front of the one memory engine
//! ([`hetsim::MemEngine`]) on each path a kernel takes to memory.
//!
//! [`Vet`] is the accelerator's DMA path: every access crosses the
//! interconnect as an [`Access`] and is vetted by the system's protection
//! mechanism before touching memory (and writes clear capability tags —
//! DMA is capability-unaware by construction).
//!
//! [`CapRegs`] is the CPU's view: on a CHERI CPU every access is checked
//! against the buffer's own capability in the register file; on a plain
//! CPU nothing is checked.

use cheri::{Capability, Perms};
use hetsim::{Access, AccessKind, Denial, DenyReason, ExecFault, Gate, MasterId, ObjectId, TaskId};
use ioprotect::IoProtection;
use obs::{EventKind, SharedTracer, Tracer};
use std::fmt;

/// How the accelerator's memory interface exposes object identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Per-object ports (or a mux that preserves an object identifier):
    /// requests carry `ObjectId` metadata. Feeds the checker's Fine mode.
    PerObjectPorts,
    /// One opaque interface: requests carry no metadata. Any object
    /// identity must be smuggled in the address bits (Coarse mode).
    Opaque,
}

/// The accelerator-side gate: kernel accesses become bus requests that
/// the protection mechanism vets.
///
/// The mechanism is held as a trait object, so each request's `vet` is
/// one virtual call whatever the mechanism is.
pub struct Vet<'a> {
    protection: &'a mut dyn IoProtection,
    master: MasterId,
    task: TaskId,
    provenance: Provenance,
    /// Optional event sink; check events are stamped with the request
    /// index (the functional path has no cycle clock of its own).
    tracer: Option<SharedTracer>,
    requests: u64,
}

impl<'a> Vet<'a> {
    /// Binds a task's accelerator execution to the protected memory path.
    /// With a `tracer`, every vetted request is recorded as a
    /// checker-check event (plus an exception event when refused).
    ///
    /// The engine's layout holds the *accelerator-visible* base addresses
    /// — physical for Fine-mode and baseline systems, object-tagged for
    /// Coarse.
    pub fn new(
        protection: &'a mut dyn IoProtection,
        master: MasterId,
        task: TaskId,
        provenance: Provenance,
        tracer: Option<SharedTracer>,
    ) -> Vet<'a> {
        Vet {
            protection,
            master,
            task,
            provenance,
            tracer,
            requests: 0,
        }
    }
}

impl Gate for Vet<'_> {
    #[inline]
    fn pass(
        &mut self,
        obj: usize,
        addr: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, ExecFault> {
        let object = match self.provenance {
            Provenance::PerObjectPorts => Some(ObjectId(obj as u16)),
            Provenance::Opaque => None,
        };
        let access = Access {
            master: self.master,
            task: self.task,
            addr,
            len,
            kind,
            object,
        };
        // One fused check+translate call per beat (`vet`): the verdict,
        // counters, and exception latching are exactly those of
        // `check` followed by `translate`.
        let verdict = self.protection.vet(&access);
        if let Some(tracer) = self.tracer.as_mut() {
            let at = self.requests;
            tracer.record(
                at,
                EventKind::CheckerCheck {
                    task: self.task.0,
                    object: obj as u16,
                    granted: verdict.is_ok(),
                },
            );
            if verdict.is_err() {
                tracer.record(
                    at,
                    EventKind::CheckerException {
                        task: self.task.0,
                        object: obj as u16,
                    },
                );
            }
        }
        self.requests += 1;
        verdict.map_err(ExecFault::Denied)
    }
}

impl fmt::Debug for Vet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vet")
            .field("protection", &self.protection.name())
            .field("task", &self.task)
            .field("provenance", &self.provenance)
            .field("requests", &self.requests)
            .finish()
    }
}

/// The CPU-side gate: the task's own capabilities check every access
/// when the core is CHERI-extended.
#[derive(Debug)]
pub struct CapRegs {
    /// Per-object capabilities; `None` models a CHERI-unaware CPU.
    caps: Option<Vec<Capability>>,
    task: TaskId,
}

impl CapRegs {
    /// Binds a CPU task; pass `caps` to model the CHERI CPU.
    #[must_use]
    pub fn new(caps: Option<Vec<Capability>>, task: TaskId) -> CapRegs {
        CapRegs { caps, task }
    }
}

impl Gate for CapRegs {
    #[inline]
    fn pass(
        &mut self,
        obj: usize,
        addr: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, ExecFault> {
        let Some(caps) = &self.caps else {
            return Ok(addr);
        };
        let needed = match kind {
            AccessKind::Read => Perms::LOAD,
            AccessKind::Write => Perms::STORE,
        };
        caps[obj].check_access(addr, len, needed).map_err(|fault| {
            ExecFault::Denied(Denial {
                access: Access {
                    master: MasterId(0),
                    task: self.task,
                    addr,
                    len,
                    kind,
                    object: Some(ObjectId(obj as u16)),
                },
                reason: DenyReason::Capability(fault),
            })
        })?;
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CapChecker;
    use crate::config::CheckerConfig;
    use hetsim::{Engine, MemEngine, TaggedMemory, TaskLayout};

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    #[test]
    fn protected_engine_grants_in_bounds_and_blocks_overflow() {
        let mut mem = TaggedMemory::new(1 << 16);
        let mut checker = CapChecker::new(CheckerConfig::fine());
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        let mut eng = MemEngine::gated(
            &mut mem,
            TaskLayout::new([(0x1000, 64)]),
            Vet::new(
                &mut checker,
                MasterId(1),
                TaskId(1),
                Provenance::PerObjectPorts,
                None,
            ),
        );
        eng.store_u32(0, 0, 0x55).unwrap();
        assert_eq!(eng.load_u32(0, 0).unwrap(), 0x55);
        let err = eng.load_u32(0, 16); // offset 64: one past the end
        assert!(matches!(err, Err(ExecFault::Denied(_))));
        assert!(eng.first_denial().is_some());
    }

    #[test]
    fn coarse_layout_reaches_memory_through_translation() {
        let cfg = CheckerConfig::coarse();
        let mut mem = TaggedMemory::new(1 << 16);
        let mut checker = CapChecker::new(cfg);
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        // The driver loads object-tagged base pointers.
        let tagged_base = cfg.coarse_tag_address(0, 0x1000);
        let mut eng = MemEngine::gated(
            &mut mem,
            TaskLayout::new([(tagged_base, 64)]),
            Vet::new(
                &mut checker,
                MasterId(1),
                TaskId(1),
                Provenance::Opaque,
                None,
            ),
        );
        eng.store_u32(0, 3, 0xabcd).unwrap();
        assert_eq!(eng.load_u32(0, 3).unwrap(), 0xabcd);
        drop(eng);
        // The data really landed at the physical address.
        assert_eq!(mem.read_uint(0x1000 + 12, 4).unwrap(), 0xabcd);
    }

    #[test]
    fn granted_dma_write_still_clears_tags() {
        let mut mem = TaggedMemory::new(1 << 16);
        mem.write_capability(0x1000, Capability::root().compress(), true)
            .unwrap();
        let mut checker = CapChecker::new(CheckerConfig::fine());
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        let mut eng = MemEngine::gated(
            &mut mem,
            TaskLayout::new([(0x1000, 64)]),
            Vet::new(
                &mut checker,
                MasterId(1),
                TaskId(1),
                Provenance::PerObjectPorts,
                None,
            ),
        );
        eng.store_u8(0, 0, 0xff).unwrap();
        drop(eng);
        assert!(
            !mem.tag(0x1000),
            "accelerator writes must strip capability tags"
        );
    }

    #[test]
    fn cap_regs_check_only_when_cheri() {
        let mut mem = TaggedMemory::new(1 << 16);
        let layout = TaskLayout::new([(0x1000, 64)]);
        // Plain CPU: out-of-bounds "works" (and corrupts).
        let mut plain = MemEngine::gated(&mut mem, layout.clone(), CapRegs::new(None, TaskId(1)));
        plain.store_u8(0, 999, 1).unwrap();
        drop(plain);
        // CHERI CPU: same access faults.
        let caps = vec![rw_cap(0x1000, 64)];
        let mut cheri = MemEngine::gated(&mut mem, layout, CapRegs::new(Some(caps), TaskId(1)));
        assert!(matches!(
            cheri.store_u8(0, 999, 1),
            Err(ExecFault::Denied(_))
        ));
        cheri.store_u8(0, 63, 1).unwrap();
    }

    #[test]
    fn traces_accumulate_across_ops() {
        let mut mem = TaggedMemory::new(1 << 16);
        let mut eng = MemEngine::gated(
            &mut mem,
            TaskLayout::new([(0x100, 256), (0x200, 256)]),
            CapRegs::new(None, TaskId(1)),
        );
        eng.compute(4);
        eng.store_u64(0, 0, 1).unwrap();
        eng.copy(1, 0, 0, 0, 64).unwrap();
        let t = eng.into_trace();
        assert_eq!(t.compute_units(), 4);
        assert_eq!(t.mem_bytes(), 8 + 128);
    }
}
