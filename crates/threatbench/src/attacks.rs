//! Executable attack scenarios.
//!
//! Each function builds a fresh system guarded by the given mechanism,
//! stages victim and attacker tasks, launches the attack through the
//! ordinary accelerator path, and reports what actually happened. These
//! are the measurements behind the executable rows of Table 3.

use crate::cell::Cell;
use crate::mechanisms::Mechanism;
use capchecker::{CheckerMode, HeteroSystem, TaskRequest};
use hetsim::{Access, MasterId, TaskId};

/// Layout facts the attacker "knows" (addresses are not secrets in the
/// threat model — the attacker wrote or observed the allocator).
struct Fixture {
    sys: HeteroSystem,
    attacker: TaskId,
    /// A victim buffer several pages away from the attacker's.
    victim_far: u64,
    /// The victim object id of `victim_far` within its own task.
    victim_far_obj: u16,
    /// A victim buffer sharing a 4 kB page with the attacker's buffer.
    victim_same_page: u64,
    victim_same_page_obj: u16,
    /// The attacker's own second buffer (intra-task target).
    own_second: u64,
}

fn fixture(mech: Mechanism) -> Fixture {
    let mut sys = mech.system();
    // Victim first: a small buffer, a 16 KiB pad, and another small
    // buffer. The pad pushes the last buffer (and everything after it)
    // several pages past the first.
    let victim = sys
        .allocate_task(&TaskRequest::accel("victim", "accel").rw_buffers([64, 16384, 64]))
        .expect("victim allocates");
    let attacker = sys
        .allocate_task(&TaskRequest::accel("attacker", "accel").rw_buffers([64, 64]))
        .expect("attacker allocates");

    let v = sys.cpu_layout(victim).expect("victim layout");
    let a = sys.cpu_layout(attacker).expect("attacker layout");
    let page = 4096;
    assert_ne!(
        v.buffers[0].base / page,
        a.buffers[0].base / page,
        "far victim is off-page"
    );
    assert_eq!(
        v.buffers[2].base / page,
        a.buffers[0].base / page,
        "near victim shares the page"
    );

    // Seed the victim buffers with recognisable secrets.
    sys.write_buffer(victim, 0, 0, &[0x51; 64])
        .expect("seed far secret");
    sys.write_buffer(victim, 2, 0, &[0x52; 64])
        .expect("seed near secret");

    Fixture {
        victim_far: v.buffers[0].base,
        victim_far_obj: 0,
        victim_same_page: v.buffers[2].base,
        victim_same_page_obj: 2,
        own_second: a.buffers[1].base,
        sys,
        attacker,
    }
}

/// Attempts a 4-byte read of physical address `target` through the
/// attacker's object-0 interface, forging Coarse object-ID bits when the
/// system uses them. Returns `true` if the data was obtained.
fn attempt_read(fx: &mut Fixture, target: u64, forged_object: u16) -> bool {
    let coarse = fx
        .sys
        .checker()
        .is_some_and(|c| c.mode() == CheckerMode::Coarse)
        .then(|| *fx.sys.checker().expect("checker exists").config());
    let visible_base = fx.sys.accel_layout(fx.attacker).expect("layout").buffers[0].base;
    let bus_target = match coarse {
        Some(cfg) => cfg.coarse_tag_address(forged_object, target),
        None => target,
    };
    let offset = bus_target.wrapping_sub(visible_base);
    let mut got = false;
    fx.sys
        .run_accel_task(fx.attacker, |eng| {
            got = eng.load(0, offset, 4).is_ok();
            Ok(())
        })
        .expect("attack kernel runs");
    got
}

/// The buffer-overread/overwrite ladder behind Table 3 group (a): probes
/// progressively nearer targets and reports the finest granularity at
/// which the mechanism held.
#[must_use]
pub fn spatial_cell(mech: Mechanism) -> Cell {
    let mut fx = fixture(mech);
    let (far, far_obj) = (fx.victim_far, fx.victim_far_obj);
    let (near, near_obj) = (fx.victim_same_page, fx.victim_same_page_obj);
    let own_second = fx.own_second;
    // 1. Cross-task, cross-page.
    if attempt_read(&mut fx, far, far_obj) {
        return Cell::NotProtected;
    }
    // 2. Cross-task, same page as an attacker buffer.
    if attempt_read(&mut fx, near, near_obj) {
        return Cell::Page;
    }
    // 3. Same task, wrong object (buffer-0 pointer reaching buffer 1).
    if attempt_read(&mut fx, own_second, 1) {
        return Cell::Task;
    }
    Cell::Object
}

/// Untrusted pointer offset (CWE-823): the out-of-range index arrives as
/// *data* in the attacker's input buffer, and the kernel dereferences it
/// unchecked — the "array index from unsanitized input" case of §5.2.3.
#[must_use]
pub fn untrusted_offset_cell(mech: Mechanism) -> Cell {
    let mut fx = fixture(mech);
    let visible_base = fx.sys.accel_layout(fx.attacker).expect("layout").buffers[0].base;
    let (far, far_obj) = (fx.victim_far, fx.victim_far_obj);
    let (near, near_obj) = (fx.victim_same_page, fx.victim_same_page_obj);
    let own_second = fx.own_second;

    let mut probe = |target: u64, forged_object: u16| -> bool {
        let coarse = fx
            .sys
            .checker()
            .is_some_and(|c| c.mode() == CheckerMode::Coarse)
            .then(|| *fx.sys.checker().expect("checker exists").config());
        let bus_target = match coarse {
            Some(cfg) => cfg.coarse_tag_address(forged_object, target),
            None => target,
        };
        // The hostile offset is planted in the input data…
        let evil_offset = bus_target.wrapping_sub(visible_base);
        fx.sys
            .write_buffer(fx.attacker, 0, 0, &evil_offset.to_le_bytes())
            .expect("plant offset");
        let mut got = false;
        fx.sys
            .run_accel_task(fx.attacker, |eng| {
                // …and the kernel trusts it.
                let idx = eng.load_u64(0, 0)?;
                got = eng.load(0, idx, 4).is_ok();
                Ok(())
            })
            .expect("attack kernel runs");
        got
    };

    if probe(far, far_obj) {
        return Cell::NotProtected;
    }
    if probe(near, near_obj) {
        return Cell::Page;
    }
    if probe(own_second, 1) {
        return Cell::Task;
    }
    Cell::Object
}

/// Use-after-free (CWE-416): a stale DMA master keeps issuing with a dead
/// task's identity after the driver deallocated it.
#[must_use]
pub fn use_after_free_blocked(mech: Mechanism) -> bool {
    let mut sys = mech.system();
    let t = sys
        .allocate_task(&TaskRequest::accel("doomed", "accel").rw_buffers([64]))
        .expect("allocates");
    let base = sys.cpu_layout(t).expect("layout").buffers[0].base;
    sys.deallocate_task(t).expect("deallocates");
    sys.check_raw(&Access::read(MasterId(9), t, base, 4))
        .is_err()
}

/// Assignment of a fixed address to a pointer (CWE-587): the accelerator
/// dereferences a hard-coded address in OS-owned memory.
#[must_use]
pub fn fixed_address_blocked(mech: Mechanism) -> bool {
    let mut fx = fixture(mech);
    // Below the heap: kernel/OS territory.
    !attempt_read(&mut fx, 0x2000, 0)
}

/// Access of an uninitialized pointer (CWE-824): a zero-valued pointer
/// register is dereferenced.
#[must_use]
pub fn uninitialized_pointer_blocked(mech: Mechanism) -> bool {
    let mut fx = fixture(mech);
    !attempt_read(&mut fx, 0, 0)
}

/// Heap inspection (CWE-244): a follow-on task allocates the memory a
/// finished task used and looks for leftovers. The trusted driver's
/// deallocation scrub is the defence (Table 3 group c: everyone passes,
/// because everyone shares the driver).
#[must_use]
pub fn heap_inspection_prevented(mech: Mechanism) -> bool {
    let mut sys = mech.system();
    let secret_holder = sys
        .allocate_task(&TaskRequest::accel("holder", "accel").rw_buffers([256]))
        .expect("allocates");
    sys.write_buffer(secret_holder, 0, 0, &[0xAA; 256])
        .expect("seed secret");
    let base = sys.cpu_layout(secret_holder).expect("layout").buffers[0].base;
    sys.deallocate_task(secret_holder).expect("deallocates");

    let snoop = sys
        .allocate_task(&TaskRequest::accel("snoop", "accel").rw_buffers([256]))
        .expect("allocates");
    assert_eq!(
        sys.cpu_layout(snoop).expect("layout").buffers[0].base,
        base,
        "first-fit must reuse the block for the scenario to be meaningful"
    );
    let mut leaked = false;
    sys.run_accel_task(snoop, |eng| {
        for i in 0..32 {
            if eng.load_u64(0, i)? != 0 {
                leaked = true;
            }
        }
        Ok(())
    })
    .expect("snoop runs");
    !leaked
}

/// Capability forging by DMA: the attacker overwrites a valid capability
/// stored in memory it can write. The write may succeed — but the stored
/// tag must be gone, so the CPU can never dereference the forgery.
#[must_use]
pub fn capability_forging_blocked(mech: Mechanism) -> bool {
    let mut sys = mech.system();
    let t = sys
        .allocate_task(&TaskRequest::accel("forger", "accel").rw_buffers([64]))
        .expect("allocates");
    let base = sys.cpu_layout(t).expect("layout").buffers[0].base;
    // The CPU legitimately stores a valid capability in the buffer (a
    // CHERI CPU task keeping a pointer there).
    let cap = cheri::Capability::root()
        .set_bounds(0, 1 << 20)
        .expect("bounds");
    sys.memory_mut()
        .write_capability(base, cap.compress(), true)
        .expect("host store");
    assert!(sys.memory().tag(base));

    // The accelerator overwrites it with attacker-chosen bits.
    sys.run_accel_task(t, |eng| {
        eng.store_u64(0, 0, u64::MAX)?;
        eng.store_u64(0, 1, u64::MAX)?;
        Ok(())
    })
    .expect("forger runs");

    // Whatever the bits now say, the tag is clear: unforgeable.
    !sys.memory().tag(base)
}

/// After a blocked access on a CapChecker system, the exception is
/// latched globally and traced to the offending pointer (§5.2.2).
#[must_use]
pub fn exception_reporting_works(mech: Mechanism) -> bool {
    let mut fx = fixture(mech);
    let (far, far_obj) = (fx.victim_far, fx.victim_far_obj);
    let _ = attempt_read(&mut fx, far, far_obj);
    match fx.sys.checker() {
        Some(c) => c.exception_flag() && !c.offending_objects(fx.attacker).is_empty(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_ladder_matches_table3_group_a() {
        assert_eq!(spatial_cell(Mechanism::NoMethod), Cell::NotProtected);
        assert_eq!(spatial_cell(Mechanism::Iopmp), Cell::Task);
        assert_eq!(spatial_cell(Mechanism::Iommu), Cell::Page);
        assert_eq!(spatial_cell(Mechanism::Snpu), Cell::Task);
        assert_eq!(spatial_cell(Mechanism::CapCoarse), Cell::Task);
        assert_eq!(spatial_cell(Mechanism::CapFine), Cell::Object);
    }

    #[test]
    fn untrusted_offsets_match_the_ladder_where_pointer_aware() {
        assert_eq!(
            untrusted_offset_cell(Mechanism::NoMethod),
            Cell::NotProtected
        );
        assert_eq!(untrusted_offset_cell(Mechanism::Iommu), Cell::Page);
        assert_eq!(untrusted_offset_cell(Mechanism::CapCoarse), Cell::Task);
        assert_eq!(untrusted_offset_cell(Mechanism::CapFine), Cell::Object);
    }

    #[test]
    fn temporal_attacks_blocked_everywhere_but_no_method() {
        for m in Mechanism::ALL {
            let expected = m != Mechanism::NoMethod;
            assert_eq!(use_after_free_blocked(m), expected, "{m}: UAF");
            assert_eq!(fixed_address_blocked(m), expected, "{m}: fixed address");
            assert_eq!(
                uninitialized_pointer_blocked(m),
                expected,
                "{m}: uninit pointer"
            );
        }
    }

    #[test]
    fn driver_scrub_defeats_heap_inspection_for_everyone() {
        for m in Mechanism::ALL {
            assert!(heap_inspection_prevented(m), "{m}");
        }
    }

    #[test]
    fn tags_never_survive_dma_writes() {
        for m in Mechanism::ALL {
            assert!(capability_forging_blocked(m), "{m}");
        }
    }

    #[test]
    fn capchecker_latches_and_traces_exceptions() {
        assert!(exception_reporting_works(Mechanism::CapFine));
        assert!(exception_reporting_works(Mechanism::CapCoarse));
        assert!(!exception_reporting_works(Mechanism::Iommu));
    }
}
