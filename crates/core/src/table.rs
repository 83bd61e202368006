//! The CapChecker's capability table.
//!
//! A fixed bank of entries, each holding one imported capability keyed by
//! `(task, object)`, with a per-entry exception bit so illegal accesses can
//! be traced in software (§5.2.2). Lookup and allocation are associative,
//! as in the hardware.
//!
//! What software sees is slot order: an install takes the lowest free
//! slot, a re-install replaces its entry in place, and iteration,
//! exception traces and snapshots all walk the slots in order. The
//! hardware matches `(task, object)` against every slot in one cycle; the
//! model stands in for that parallel match with an open-addressed index
//! beside the slots, so a lookup costs O(1) host time instead of a scan.
//! The index is invisible: it changes no slot, verdict or cycle count.

use cheri::Capability;
use hetsim::{ObjectId, TaskId};
use std::fmt;

/// One occupied table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// The task the capability was delegated to.
    pub task: TaskId,
    /// The object (buffer) it authorizes.
    pub object: ObjectId,
    /// The decoded capability.
    pub capability: Capability,
    /// Set when an access through this entry was refused.
    pub exception: bool,
}

/// The fixed-size associative capability store.
#[derive(Clone)]
pub struct CapabilityTable {
    slots: Vec<Option<TableEntry>>,
    /// Linear-probing hash index over `slots`, at least twice their
    /// number and a power of two: each cell holds `slot + 1`, 0 is empty.
    index: Vec<u32>,
    occupied: usize,
}

impl CapabilityTable {
    /// A table with `entries` slots (256 in the prototype).
    #[must_use]
    pub fn new(entries: usize) -> CapabilityTable {
        let cells = (2 * entries).max(2).next_power_of_two();
        CapabilityTable {
            slots: vec![None; entries],
            index: vec![0; cells],
            occupied: 0,
        }
    }

    /// Total slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots (Figure 12's CapChecker entry count).
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Installs a capability into the lowest free slot.
    /// Re-installing an existing `(task, object)` key replaces it in place.
    ///
    /// Returns the slot index, or `None` when the table is full — the
    /// hardware stalls the allocation in that case (§5.3 ③).
    pub fn install(&mut self, task: TaskId, object: ObjectId, cap: Capability) -> Option<usize> {
        let entry = TableEntry {
            task,
            object,
            capability: cap,
            exception: false,
        };
        let cell = match self.probe(task, object) {
            Ok(slot) => {
                self.slots[slot] = Some(entry);
                return Some(slot);
            }
            Err(cell) => cell,
        };
        let free = self.slots.iter().position(Option::is_none)?;
        self.slots[free] = Some(entry);
        self.index[cell] = free as u32 + 1;
        self.occupied += 1;
        Some(free)
    }

    /// Finds the entry for `(task, object)`.
    #[must_use]
    pub fn lookup(&self, task: TaskId, object: ObjectId) -> Option<&TableEntry> {
        self.probe(task, object)
            .ok()
            .and_then(|i| self.slots[i].as_ref())
    }

    /// Marks the entry's exception bit (illegal access trace).
    pub fn mark_exception(&mut self, task: TaskId, object: ObjectId) {
        if let Ok(i) = self.probe(task, object) {
            if let Some(e) = self.slots[i].as_mut() {
                e.exception = true;
            }
        }
    }

    /// Evicts every entry of `task`, returning how many were freed
    /// (deallocation step ② of Figure 6).
    pub fn evict_task(&mut self, task: TaskId) -> usize {
        let mut freed = 0;
        for slot in &mut self.slots {
            if slot.is_some_and(|e| e.task == task) {
                *slot = None;
                freed += 1;
            }
        }
        if freed > 0 {
            // Deleting cells would break the probe chains through them;
            // eviction already walks every slot, so relink the survivors.
            self.occupied -= freed;
            self.index.fill(0);
            for i in 0..self.slots.len() {
                if let Some(e) = self.slots[i] {
                    if let Err(cell) = self.probe(e.task, e.object) {
                        self.index[cell] = i as u32 + 1;
                    }
                }
            }
        }
        freed
    }

    /// Empties every slot, keeping the capacity and allocations.
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.index.fill(0);
        self.occupied = 0;
    }

    /// Iterates over occupied entries.
    pub fn iter(&self) -> impl Iterator<Item = &TableEntry> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Entries of `task` whose exception bit is set.
    pub fn exceptions_for(&self, task: TaskId) -> impl Iterator<Item = &TableEntry> {
        self.iter().filter(move |e| e.task == task && e.exception)
    }

    /// The index cell a key's probe chain starts at: the top
    /// `log2(index.len())` bits of its multiplicative hash.
    fn home(&self, task: TaskId, object: ObjectId) -> usize {
        let key = u64::from(task.0) << 16 | u64::from(object.0);
        let shift = 64 - self.index.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Walks the key's probe chain: `Ok(slot)` when it is held, else
    /// `Err(cell)`, the empty cell that ends the chain. The index is at
    /// most half full, so every chain ends.
    fn probe(&self, task: TaskId, object: ObjectId) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(task, object);
        loop {
            let slot = match self.index[cell] {
                0 => return Err(cell),
                n => n as usize - 1,
            };
            if matches!(&self.slots[slot], Some(e) if e.task == task && e.object == object) {
                return Ok(slot);
            }
            cell = (cell + 1) & mask;
        }
    }
}

impl fmt::Debug for CapabilityTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CapabilityTable({}/{} occupied)",
            self.occupied(),
            self.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Perms;

    fn cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    #[test]
    fn install_lookup_evict_cycle() {
        let mut t = CapabilityTable::new(4);
        t.install(TaskId(1), ObjectId(0), cap(0x1000, 64)).unwrap();
        t.install(TaskId(1), ObjectId(1), cap(0x2000, 64)).unwrap();
        t.install(TaskId(2), ObjectId(0), cap(0x3000, 64)).unwrap();
        assert_eq!(t.occupied(), 3);
        assert_eq!(
            t.lookup(TaskId(1), ObjectId(1)).unwrap().capability.base(),
            0x2000
        );
        assert!(t.lookup(TaskId(3), ObjectId(0)).is_none());
        assert_eq!(t.evict_task(TaskId(1)), 2);
        assert_eq!(t.occupied(), 1);
        assert!(t.lookup(TaskId(1), ObjectId(0)).is_none());
    }

    #[test]
    fn full_table_refuses() {
        let mut t = CapabilityTable::new(2);
        assert!(t.install(TaskId(1), ObjectId(0), cap(0, 16)).is_some());
        assert!(t.install(TaskId(1), ObjectId(1), cap(16, 16)).is_some());
        assert!(t.install(TaskId(1), ObjectId(2), cap(32, 16)).is_none());
        // Eviction frees a slot and installation resumes — the stall/evict
        // protocol of §5.3.
        t.evict_task(TaskId(1));
        assert!(t.install(TaskId(2), ObjectId(0), cap(0, 16)).is_some());
    }

    #[test]
    fn reinstall_replaces_in_place() {
        let mut t = CapabilityTable::new(2);
        t.install(TaskId(1), ObjectId(0), cap(0x1000, 64)).unwrap();
        t.install(TaskId(1), ObjectId(0), cap(0x5000, 32)).unwrap();
        assert_eq!(t.occupied(), 1);
        assert_eq!(
            t.lookup(TaskId(1), ObjectId(0)).unwrap().capability.base(),
            0x5000
        );
    }

    #[test]
    fn eviction_keeps_probe_chains_through_freed_cells() {
        let mut t = CapabilityTable::new(8);
        // The head of one probe chain belongs to task 0; three keys of
        // other tasks share its home cell, so they sit behind it.
        let head = (TaskId(0), ObjectId(0));
        let home = t.home(head.0, head.1);
        let mates: Vec<_> = (1..64u32)
            .flat_map(|task| (0..64u16).map(move |o| (TaskId(task), ObjectId(o))))
            .filter(|&(task, o)| t.home(task, o) == home)
            .take(3)
            .collect();
        assert_eq!(mates.len(), 3);
        let base = |i: usize| 0x1000 * (i as u64 + 1);
        assert_eq!(t.install(head.0, head.1, cap(0, 64)), Some(0));
        for (i, &(task, o)) in mates.iter().enumerate() {
            assert_eq!(t.install(task, o, cap(base(i), 64)), Some(i + 1));
        }
        assert_eq!(t.evict_task(TaskId(0)), 1);
        for (i, &(task, o)) in mates.iter().enumerate() {
            assert_eq!(
                t.lookup(task, o).map(|e| e.capability.base()),
                Some(base(i))
            );
            // Still found, so a re-install replaces in place.
            assert_eq!(t.install(task, o, cap(base(i), 32)), Some(i + 1));
        }
        assert_eq!(t.occupied(), 3);
        // A new key takes the lowest free slot: the one the head left.
        assert_eq!(t.install(TaskId(9), ObjectId(9), cap(0, 64)), Some(0));
        assert_eq!(t.install(TaskId(9), ObjectId(10), cap(0, 64)), Some(4));
    }

    #[test]
    fn clear_empties_and_keeps_capacity() {
        let mut t = CapabilityTable::new(2);
        t.install(TaskId(1), ObjectId(0), cap(0, 16)).unwrap();
        t.install(TaskId(1), ObjectId(1), cap(16, 16)).unwrap();
        t.clear();
        assert_eq!((t.occupied(), t.capacity()), (0, 2));
        assert!(t.lookup(TaskId(1), ObjectId(0)).is_none());
        assert_eq!(t.install(TaskId(2), ObjectId(0), cap(0, 16)), Some(0));
    }

    #[test]
    fn exception_bits_trace_offenders() {
        let mut t = CapabilityTable::new(4);
        t.install(TaskId(1), ObjectId(0), cap(0x1000, 64)).unwrap();
        t.install(TaskId(1), ObjectId(1), cap(0x2000, 64)).unwrap();
        t.mark_exception(TaskId(1), ObjectId(1));
        let excs: Vec<_> = t.exceptions_for(TaskId(1)).collect();
        assert_eq!(excs.len(), 1);
        assert_eq!(excs[0].object, ObjectId(1));
    }
}
