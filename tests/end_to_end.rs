//! Cross-crate integration: the full driver lifecycle of Figure 6 with
//! real MachSuite kernels on the CapChecker-guarded system.

use cheri_hetero::prelude::*;

fn fine_system(class: &str, fus: usize) -> HeteroSystem {
    let mut sys = HeteroSystem::new(SystemConfig::default());
    sys.add_fus(class, fus);
    sys
}

fn allocate(sys: &mut HeteroSystem, bench: Benchmark, name: &str, seed: u64) -> TaskId {
    let id = sys
        .allocate_task(
            &TaskRequest::accel(name, bench.name())
                .rw_buffers(bench.buffers().iter().map(|b| b.size)),
        )
        .expect("allocation succeeds");
    for (obj, image) in bench.init(seed).iter().enumerate() {
        sys.write_buffer(id, obj, 0, image).expect("init fits");
    }
    id
}

#[test]
fn every_benchmark_runs_protected_and_matches_its_reference() {
    for bench in Benchmark::ALL {
        let mut sys = fine_system(bench.name(), 1);
        let id = allocate(&mut sys, bench, "t", 0xE2E);
        let outcome = sys
            .run_accel_task(id, |eng| bench.kernel(eng))
            .expect("runs");
        assert!(
            outcome.completed(),
            "{bench} was denied: {:?}",
            outcome.denial
        );

        // The protected run must produce exactly the golden bytes.
        let mut golden = bench.init(0xE2E);
        bench.reference(&mut golden);
        for (obj, want) in golden.iter().enumerate() {
            let mut got = vec![0u8; want.len()];
            sys.read_buffer(id, obj, 0, &mut got).expect("readback");
            assert_eq!(
                &got, want,
                "{bench}: buffer {obj} diverged under protection"
            );
        }

        // No exception anywhere, tree still monotonic, table consistent.
        assert!(!sys.checker().expect("checker").exception_flag(), "{bench}");
        assert!(sys.tree().audit().is_none(), "{bench}");
        assert_eq!(sys.protection_entries(), bench.buffers().len(), "{bench}");

        let report = sys.deallocate_task(id).expect("dealloc");
        assert!(report.exception.is_none(), "{bench}");
        assert_eq!(sys.protection_entries(), 0, "{bench}");
    }
}

#[test]
fn eight_instances_of_each_benchmark_fit_the_256_entry_table() {
    // Table 2's point: every benchmark's full 8-instance configuration
    // fits the prototype CapChecker.
    for bench in [Benchmark::Backprop, Benchmark::MdKnn, Benchmark::Nw] {
        let mut sys = fine_system(bench.name(), 8);
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(allocate(&mut sys, bench, &format!("i{i}"), i as u64));
        }
        assert_eq!(sys.protection_entries(), 8 * bench.buffers().len());
        assert!(sys.protection_entries() <= 256);
        for id in ids {
            sys.deallocate_task(id).expect("dealloc");
        }
    }
}

#[test]
fn capability_table_exhaustion_stalls_allocation() {
    let mut sys = HeteroSystem::new(SystemConfig {
        protection: ProtectionChoice::CapChecker(CheckerConfig {
            entries: 8,
            ..CheckerConfig::fine()
        }),
        ..SystemConfig::default()
    });
    sys.add_fus("k", 4);
    let a = sys
        .allocate_task(&TaskRequest::accel("a", "k").rw_buffers([64; 5]))
        .unwrap();
    let _b = sys
        .allocate_task(&TaskRequest::accel("b", "k").rw_buffers([64; 3]))
        .unwrap();
    // 8/8 entries used; the next allocation must stall (error here).
    let err = sys
        .allocate_task(&TaskRequest::accel("c", "k").rw_buffers([64]))
        .unwrap_err();
    assert!(matches!(
        err,
        capchecker::DriverError::ProtectionTableFull(_)
    ));
    // Eviction by deallocation unblocks it, as in §5.3 ③.
    sys.deallocate_task(a).unwrap();
    assert!(sys
        .allocate_task(&TaskRequest::accel("c", "k").rw_buffers([64]))
        .is_ok());
}

#[test]
fn denied_task_aborts_cleanly_and_leaves_no_residue() {
    let mut sys = fine_system("gemm_ncubed", 1);
    let bench = Benchmark::GemmNcubed;
    let id = allocate(&mut sys, bench, "victim-of-own-bug", 7);
    let b_base = sys.cpu_layout(id).unwrap().buffers[1].base;

    let outcome = sys
        .run_accel_task(id, |eng| {
            eng.store_u32(0, 0, 1)?;
            eng.load_u32(0, 1 << 20)?; // way out of bounds
            eng.store_u32(0, 1, 2)?; // never reached
            Ok(())
        })
        .expect("kernel executes");
    assert!(!outcome.completed());

    let report = sys.deallocate_task(id).expect("dealloc");
    assert!(report.exception.is_some());
    assert!(report.scrubbed);
    // The freed memory holds no leftovers for the next tenant.
    assert_eq!(sys.memory().read_uint(b_base, 8).unwrap(), 0);

    // And the system is immediately reusable.
    let id2 = allocate(&mut sys, bench, "clean", 8);
    let outcome = sys
        .run_accel_task(id2, |eng| bench.kernel(eng))
        .expect("runs");
    assert!(outcome.completed());
}

#[test]
fn coarse_and_fine_agree_on_benign_results() {
    let bench = Benchmark::SortRadix;
    let mut results = Vec::new();
    for config in [CheckerConfig::fine(), CheckerConfig::coarse()] {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CapChecker(config),
            ..SystemConfig::default()
        });
        sys.add_fus(bench.name(), 1);
        let id = allocate(&mut sys, bench, "s", 99);
        let outcome = sys
            .run_accel_task(id, |eng| bench.kernel(eng))
            .expect("runs");
        assert!(outcome.completed(), "{:?}", config.mode);
        let mut data = vec![0u8; 8192];
        sys.read_buffer(id, 0, 0, &mut data).expect("readback");
        results.push(data);
    }
    assert_eq!(
        results[0], results[1],
        "provenance mode must not change results"
    );
}

#[test]
fn cpu_and_accelerator_compute_identical_bytes() {
    let bench = Benchmark::FftStrided;
    let mut accel_sys = fine_system(bench.name(), 1);
    let a = allocate(&mut accel_sys, bench, "a", 5);
    accel_sys
        .run_accel_task(a, |eng| bench.kernel(eng))
        .expect("accel runs");

    let mut cpu_sys = HeteroSystem::new(SystemVariant::CheriCpu.config());
    let c = cpu_sys
        .allocate_task(&TaskRequest::cpu("c").rw_buffers(bench.buffers().iter().map(|b| b.size)))
        .expect("cpu task");
    for (obj, image) in bench.init(5).iter().enumerate() {
        cpu_sys.write_buffer(c, obj, 0, image).expect("init");
    }
    cpu_sys
        .run_cpu_task(c, |eng| bench.kernel(eng))
        .expect("cpu runs");

    for obj in 0..bench.buffers().len() {
        let size = bench.buffers()[obj].size as usize;
        let mut x = vec![0u8; size];
        let mut y = vec![0u8; size];
        accel_sys
            .read_buffer(a, obj, 0, &mut x)
            .expect("read accel");
        cpu_sys.read_buffer(c, obj, 0, &mut y).expect("read cpu");
        assert_eq!(x, y, "{bench}: buffer {obj} differs between targets");
    }
}

/// Every way a kernel reaches memory records the same operations: the
/// trace the system keeps for a task equals, op for op, the trace of an
/// unprotected engine over the task's physical layout, whatever guards
/// the accelerator and whether or not the CPU checks its own accesses.
#[test]
fn every_target_records_the_unprotected_trace() {
    use cheri_hetero::capchecker::CachedCheckerConfig;
    use cheri_hetero::hetsim::DirectEngine;
    use cheri_hetero::ioprotect::{IommuConfig, IopmpConfig};

    let accel = [
        ProtectionChoice::None,
        ProtectionChoice::Iopmp(IopmpConfig::default()),
        ProtectionChoice::Iommu(IommuConfig::default()),
        ProtectionChoice::Snpu,
        ProtectionChoice::CapChecker(CheckerConfig::fine()),
        ProtectionChoice::CapChecker(CheckerConfig::coarse()),
        ProtectionChoice::CachedCapChecker(CachedCheckerConfig::default()),
    ];
    let targets = accel
        .into_iter()
        .map(|protection| {
            let config = SystemConfig {
                protection,
                ..SystemConfig::default()
            };
            (format!("{protection:?}"), config, true)
        })
        .chain(
            [SystemVariant::Cpu, SystemVariant::CheriCpu]
                .map(|v| (v.to_string(), v.config(), false)),
        );
    let mut cases = 0;
    for (label, config, on_accel) in targets {
        for bench in Benchmark::ALL {
            let seed = 0x7ACE;
            let mut sys = HeteroSystem::new(config);
            let sizes = bench.buffers().iter().map(|b| b.size);
            let req = if on_accel {
                sys.add_fus(bench.name(), 1);
                TaskRequest::accel("t", bench.name()).rw_buffers(sizes)
            } else {
                TaskRequest::cpu("t").rw_buffers(sizes)
            };
            let id = sys.allocate_task(&req).expect("allocation succeeds");
            let images = bench.init(seed);
            for (obj, image) in images.iter().enumerate() {
                sys.write_buffer(id, obj, 0, image).expect("init fits");
            }
            let outcome = if on_accel {
                sys.run_accel_task(id, |eng| bench.kernel(eng))
            } else {
                sys.run_cpu_task(id, |eng| bench.kernel(eng))
            }
            .expect("runs");
            assert!(outcome.completed(), "{bench} on {label}");

            let layout = sys.cpu_layout(id).expect("live task");
            let mut mem = TaggedMemory::new(sys.memory().size());
            for (region, image) in layout.buffers.iter().zip(&images) {
                mem.write_bytes(region.base, image).expect("init fits");
            }
            let mut direct = DirectEngine::new(&mut mem, layout);
            bench.kernel(&mut direct).expect("unprotected run");
            let recorded = sys.trace(id).expect("live task").expect("trace kept");
            assert_eq!(
                recorded.ops(),
                direct.trace().ops(),
                "{bench} on {label}: recorded trace differs"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 9 * Benchmark::ALL.len());
}
