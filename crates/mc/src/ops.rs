//! The model checker's op alphabet and the scaled-down address geometry.
//!
//! Every operation is *slot-relative*: a `(task, object)` pair owns the
//! fixed address window [`slot_base`]`..+`[`SLOT_BYTES`], and every op
//! parameterized by ids derives its capabilities, access addresses, and
//! sweep regions from that window alone. Renaming tasks or objects
//! therefore permutes states without changing any judgment — the
//! equivariance that makes the symmetry reduction in [`crate::canon`]
//! sound.

use cheri::{Capability, Perms};

/// Bytes of the address window owned by one `(task, object)` pair.
pub const SLOT_BYTES: u64 = 0x100;
/// Bytes of the narrowed (derived) capability over a slot.
pub const NARROW_BYTES: u64 = 0x80;
/// First slot's base address (everything below is never granted).
pub const SLOTS_BASE: u64 = 0x1000;

/// Base address of `(task, object)`'s slot in a model with `objects`
/// objects per task.
#[must_use]
pub fn slot_base(task: u8, object: u8, objects: u8) -> u64 {
    SLOTS_BASE + (u64::from(task) * u64::from(objects) + u64::from(object)) * SLOT_BYTES
}

/// Tagged-memory size covering every slot of a `tasks`×`objects` model.
#[must_use]
pub fn mem_bytes(tasks: u8, objects: u8) -> u64 {
    SLOTS_BASE + u64::from(tasks) * u64::from(objects) * SLOT_BYTES
}

/// The full-authority capability over `(task, object)`'s slot: read+write
/// across the whole window.
#[must_use]
pub fn full_cap(task: u8, object: u8, objects: u8) -> Capability {
    let slot = slot_base(task, object, objects);
    Capability::root()
        .set_bounds(slot, SLOT_BYTES)
        .expect("slot bounds derive from root")
        .and_perms(Perms::RW)
        .expect("RW derives from root perms")
}

/// The narrowed capability: derived from [`full_cap`] by shrinking bounds
/// to the front half of the slot and dropping the store permission.
#[must_use]
pub fn narrow_cap(task: u8, object: u8, objects: u8) -> Capability {
    let slot = slot_base(task, object, objects);
    full_cap(task, object, objects)
        .set_bounds(slot, NARROW_BYTES)
        .expect("narrow bounds nest in the full slot")
        .and_perms(Perms::LOAD)
        .expect("LOAD is a subset of RW")
}

/// One legal operation of the scaled-down model.
///
/// Fields are plain integers, so `Debug` output doubles as constructor
/// syntax in generated regression tests (the same property
/// `conformance::Op` relies on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McOp {
    /// Install the full-authority RW capability for the pair's slot.
    GrantFull {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// Install the derived narrow LOAD-only capability (front half).
    GrantNarrow {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// Attempt to install a sealed capability (must be refused).
    GrantSealed {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// Attempt to install an untagged capability (must be refused).
    GrantUntagged {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// Pure derivation probe: narrow, seal/unseal round-trip, and a
    /// widening attempt that must fail. Never changes state.
    Derive {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// In-bounds 8-byte read inside the slot (granted under any grant).
    Read {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// 8-byte read overflowing the slot's top by exactly one byte — the
    /// off-by-one bounds probe.
    ReadEdge {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// 8-byte DMA write at the slot head (needs the full grant's STORE;
    /// granted writes clear the slot's spilled tag downstream).
    WriteHead {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// In-bounds read with no hardware provenance (always denied).
    ReadNoProv {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// CPU spills a capability with the slot's bounds to the slot's
    /// first granule of tagged memory.
    Spill {
        /// Task id.
        task: u8,
        /// Object id.
        object: u8,
    },
    /// Evict every table entry of the task (grant table revocation).
    Revoke {
        /// Task id.
        task: u8,
    },
    /// Revocation sweep over the task's whole slot region: every spilled
    /// capability whose authority intersects it loses its tag.
    Sweep {
        /// Task id.
        task: u8,
    },
    /// Install static verdicts: every pair holding a full grant is marked
    /// safe on the elided subjects (the analyzer hand-off). Also snapshots
    /// the installed set as the *retained segment* for
    /// [`McOp::InstallSegmentVerdicts`].
    InstallVerdicts,
    /// The mode-switch actuator: rebuild every checker, re-grant live
    /// capabilities, drop static verdicts, reset latched flags.
    ModeSwitch,
    /// Degrade the degradation-path subject from cached to fixed-table.
    Degrade,
    /// Re-promote the degradation-path subject back to the cached design.
    Repromote,
    /// The re-install actuator: re-install the retained segment's
    /// verdicts (filtered to pairs still holding a full grant) after a
    /// rebuild dropped the installed map — the install-after-drop
    /// interleaving a caller of `set_static_verdicts` may perform after
    /// a mode switch or re-promotion.
    InstallSegmentVerdicts,
}

impl McOp {
    /// The op with task ids mapped through `task_perm` and object ids
    /// through `object_perm` (index = old id, value = new id) — the
    /// relabeling the symmetry-reduction property tests exercise.
    #[must_use]
    pub fn relabel(self, task_perm: &[u8], object_perm: &[u8]) -> McOp {
        let t = |task: u8| task_perm[usize::from(task)];
        let o = |object: u8| object_perm[usize::from(object)];
        match self {
            McOp::GrantFull { task, object } => McOp::GrantFull {
                task: t(task),
                object: o(object),
            },
            McOp::GrantNarrow { task, object } => McOp::GrantNarrow {
                task: t(task),
                object: o(object),
            },
            McOp::GrantSealed { task, object } => McOp::GrantSealed {
                task: t(task),
                object: o(object),
            },
            McOp::GrantUntagged { task, object } => McOp::GrantUntagged {
                task: t(task),
                object: o(object),
            },
            McOp::Derive { task, object } => McOp::Derive {
                task: t(task),
                object: o(object),
            },
            McOp::Read { task, object } => McOp::Read {
                task: t(task),
                object: o(object),
            },
            McOp::ReadEdge { task, object } => McOp::ReadEdge {
                task: t(task),
                object: o(object),
            },
            McOp::WriteHead { task, object } => McOp::WriteHead {
                task: t(task),
                object: o(object),
            },
            McOp::ReadNoProv { task, object } => McOp::ReadNoProv {
                task: t(task),
                object: o(object),
            },
            McOp::Spill { task, object } => McOp::Spill {
                task: t(task),
                object: o(object),
            },
            McOp::Revoke { task } => McOp::Revoke { task: t(task) },
            McOp::Sweep { task } => McOp::Sweep { task: t(task) },
            McOp::InstallVerdicts => McOp::InstallVerdicts,
            McOp::ModeSwitch => McOp::ModeSwitch,
            McOp::Degrade => McOp::Degrade,
            McOp::Repromote => McOp::Repromote,
            McOp::InstallSegmentVerdicts => McOp::InstallSegmentVerdicts,
        }
    }
}

/// Every legal op of a `tasks`×`objects` model, in the fixed order BFS
/// expands successors (per-pair ops first, then per-task, then global).
#[must_use]
pub fn alphabet(tasks: u8, objects: u8) -> Vec<McOp> {
    let mut ops = Vec::new();
    for task in 0..tasks {
        for object in 0..objects {
            ops.push(McOp::GrantFull { task, object });
            ops.push(McOp::GrantNarrow { task, object });
            ops.push(McOp::GrantSealed { task, object });
            ops.push(McOp::GrantUntagged { task, object });
            ops.push(McOp::Derive { task, object });
            ops.push(McOp::Read { task, object });
            ops.push(McOp::ReadEdge { task, object });
            ops.push(McOp::WriteHead { task, object });
            ops.push(McOp::ReadNoProv { task, object });
            ops.push(McOp::Spill { task, object });
        }
    }
    for task in 0..tasks {
        ops.push(McOp::Revoke { task });
        ops.push(McOp::Sweep { task });
    }
    ops.push(McOp::InstallVerdicts);
    ops.push(McOp::ModeSwitch);
    ops.push(McOp::Degrade);
    ops.push(McOp::Repromote);
    ops.push(McOp::InstallSegmentVerdicts);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_and_in_memory() {
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..3u8 {
            for o in 0..4u8 {
                let base = slot_base(t, o, 4);
                assert!(seen.insert(base), "slot collision at ({t}, {o})");
                assert!(base + SLOT_BYTES <= mem_bytes(3, 4));
                assert_eq!(base % 16, 0, "spill granule must be aligned");
            }
        }
    }

    #[test]
    fn caps_derive_monotonically() {
        let full = full_cap(1, 2, 3);
        let narrow = narrow_cap(1, 2, 3);
        assert!(Capability::root().dominates(&full));
        assert!(full.dominates(&narrow));
        assert!(!narrow.dominates(&full));
    }

    #[test]
    fn alphabet_size_and_relabel_closure() {
        let ops = alphabet(2, 3);
        assert_eq!(ops.len(), 10 * 6 + 2 * 2 + 5);
        // Relabeling by a permutation maps the alphabet onto itself.
        let relabeled: std::collections::BTreeSet<String> = ops
            .iter()
            .map(|op| format!("{:?}", op.relabel(&[1, 0], &[2, 0, 1])))
            .collect();
        let original: std::collections::BTreeSet<String> =
            ops.iter().map(|op| format!("{op:?}")).collect();
        assert_eq!(relabeled, original);
    }
}
