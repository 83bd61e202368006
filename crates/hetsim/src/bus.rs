//! Bus-level access descriptors and protection verdicts.
//!
//! Every memory request that crosses the interconnect is described by an
//! [`Access`]. Protection mechanisms (IOPMP, IOMMU, sNPU-style checkers,
//! and the CapChecker itself) consume these and either grant the request or
//! return a [`Denial`].

use crate::ids::{MasterId, ObjectId, TaskId};
use cheri::CapFault;
use std::error::Error;
use std::fmt;

/// Deterministic interconnect fault model: periodic grant stalls (a flaky
/// arbiter withholding the bus) and dropped beats (transfers that must be
/// retransmitted). Counter-based, not random, so a timing run with faults
/// armed is exactly reproducible — the fault campaign's requirement.
///
/// All-zero (the default) means a healthy bus, and the timing models are
/// bit-for-bit unchanged from the pre-fault code in that case.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusFaultConfig {
    /// Every `stall_every`-th grant is withheld (0 = never).
    pub stall_every: u64,
    /// Extra cycles a withheld grant waits.
    pub stall_cycles: u64,
    /// Every `drop_every`-th transfer loses its beats and retransmits,
    /// doubling its bus occupancy (0 = never).
    pub drop_every: u64,
}

impl BusFaultConfig {
    /// A healthy bus (no stalls, no drops).
    #[must_use]
    pub fn healthy() -> BusFaultConfig {
        BusFaultConfig::default()
    }

    /// Whether grant number `n` (1-based) is stalled, and for how long.
    #[must_use]
    pub fn stall_for(&self, n: u64) -> u64 {
        if self.stall_every > 0 && n.is_multiple_of(self.stall_every) {
            self.stall_cycles
        } else {
            0
        }
    }

    /// Whether transfer number `n` (1-based) drops its beats and must
    /// retransmit.
    #[must_use]
    pub fn drops(&self, n: u64) -> bool {
        self.drop_every > 0 && n.is_multiple_of(self.drop_every)
    }
}

/// Whether a request reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A DMA read (memory → accelerator).
    Read,
    /// A DMA write (accelerator → memory).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// One memory request as seen on the interconnect.
///
/// `object` carries the hardware provenance available on the accelerator's
/// memory interface: `Some` when each object maps to its own port (or the
/// port mux preserves an object identifier) — the CapChecker's **Fine**
/// input — and `None` when the accelerator multiplexes everything through
/// one opaque interface, forcing the checker into **Coarse** mode where the
/// object must be recovered from the top address bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Which bus master issued the request.
    pub master: MasterId,
    /// The task on whose behalf the request is made (interconnect source).
    pub task: TaskId,
    /// Target address. In Coarse mode the top 8 bits carry the object ID.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Hardware object provenance, if the interface exposes it.
    pub object: Option<ObjectId>,
}

impl Access {
    /// Convenience constructor for a read request.
    #[must_use]
    pub fn read(master: MasterId, task: TaskId, addr: u64, len: u64) -> Access {
        Access {
            master,
            task,
            addr,
            len,
            kind: AccessKind::Read,
            object: None,
        }
    }

    /// Convenience constructor for a write request.
    #[must_use]
    pub fn write(master: MasterId, task: TaskId, addr: u64, len: u64) -> Access {
        Access {
            master,
            task,
            addr,
            len,
            kind: AccessKind::Write,
            object: None,
        }
    }

    /// Attaches hardware object provenance (Fine-mode port metadata).
    #[must_use]
    pub fn with_object(mut self, object: ObjectId) -> Access {
        self.object = Some(object);
        self
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{:#x}, +{}) by {}",
            self.task, self.kind, self.addr, self.len, self.master
        )?;
        if let Some(obj) = self.object {
            write!(f, " ({obj})")?;
        }
        Ok(())
    }
}

/// Why a protection mechanism refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DenyReason {
    /// No translation/region entry covers the address (IOMMU/IOPMP miss).
    NoEntry,
    /// The address is outside the bounds of the matched entry.
    OutOfBounds,
    /// The matched entry does not permit this kind of access.
    MissingPermission,
    /// The governing capability's tag was invalid.
    InvalidTag,
    /// The request's object provenance does not match any table entry
    /// for the task (bad port metadata or forged object-ID address bits).
    BadProvenance,
    /// An architectural capability fault (decoded from the table entry).
    Capability(CapFault),
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::NoEntry => write!(f, "no matching entry"),
            DenyReason::OutOfBounds => write!(f, "address out of bounds"),
            DenyReason::MissingPermission => write!(f, "permission missing"),
            DenyReason::InvalidTag => write!(f, "capability tag invalid"),
            DenyReason::BadProvenance => write!(f, "object provenance mismatch"),
            DenyReason::Capability(fault) => write!(f, "capability fault: {fault}"),
        }
    }
}

/// A refused request: the access plus the reason.
///
/// Raising one of these is the protection mechanism's *exception*: the
/// CapChecker additionally latches it in a global flag and the per-entry
/// exception bits so the driver can trace it (§5.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Denial {
    /// The refused access.
    pub access: Access,
    /// Why it was refused.
    pub reason: DenyReason,
}

impl fmt::Display for Denial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "denied: {} ({})", self.access, self.reason)
    }
}

impl Error for Denial {}

#[cfg(test)]
mod tests {
    use super::*;

    fn access() -> Access {
        Access::read(MasterId(1), TaskId(2), 0x1000, 64)
    }

    #[test]
    fn constructors_fill_fields() {
        let a = access();
        assert_eq!(a.kind, AccessKind::Read);
        assert_eq!(a.object, None);
        let w = Access::write(MasterId(1), TaskId(2), 0x2000, 8).with_object(ObjectId(3));
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.object, Some(ObjectId(3)));
    }

    #[test]
    fn display_mentions_the_essentials() {
        let d = Denial {
            access: access(),
            reason: DenyReason::OutOfBounds,
        };
        let s = d.to_string();
        assert!(s.contains("denied"));
        assert!(s.contains("0x1000"));
        assert!(s.contains("out of bounds"));
    }

    #[test]
    fn capability_faults_embed() {
        let d = Denial {
            access: access(),
            reason: DenyReason::Capability(CapFault::TagViolation),
        };
        assert!(d.to_string().contains("tag violation"));
    }
}
