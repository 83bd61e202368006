//! A system memory reused across cells leaks nothing between them.
//!
//! A dropped system's memory is reset and parked on its thread for the
//! next system of the same size. Here one thread first dirties it every
//! way a run can: fault campaigns that forge tag bits and garble DMA
//! address lines, a CHERI-CPU cell, and a run that stops before teardown
//! with a spilled capability and a forged tag still in memory. The cells
//! run after that must start from a memory that is all zeros with no tag
//! set, and must produce the results and buffers they produce on a fresh
//! thread.

use capchecker::{run_campaign, CampaignConfig, HeteroSystem, SystemVariant, TaskRequest};
use capcheri_bench::runner::{run, RunSpec};
use cheri::Capability;
use hetsim::TaggedMemory;
use machsuite::Benchmark;

const SEED: u64 = 0x5EED;

/// The cells checked after the memory has been dirtied.
const CHECKED: [(Benchmark, SystemVariant); 2] = [
    (Benchmark::SpmvCrs, SystemVariant::CheriCpuCheriAccel),
    (Benchmark::Aes, SystemVariant::Cpu),
];

/// What one cell shows: its cycles, setup cycles and bus utilization,
/// whether the system it ran on started from a pristine memory, and its
/// task's buffers read back after the kernel ran.
#[derive(Debug, PartialEq)]
struct Seen {
    result: (u64, u64, u64),
    pristine: bool,
    buffers: Vec<Vec<u8>>,
}

/// All bytes zero and no tag set.
fn pristine(mem: &TaggedMemory) -> bool {
    let mut bytes = vec![0u8; mem.size() as usize];
    mem.read_bytes(0, &mut bytes).unwrap();
    mem.tag_count() == 0
        && bytes == vec![0u8; bytes.len()]
        && (0..mem.size()).step_by(16).all(|addr| !mem.tag(addr))
}

/// Runs the cell through the runner, then once more on a system of its
/// own whose buffers are read back before the task is torn down.
fn cell(bench: Benchmark, variant: SystemVariant) -> Seen {
    let r = run(&RunSpec::new(bench, variant, 1, SEED)).unwrap().result;
    let result = (r.cycles, r.setup_cycles, r.bus_utilization.to_bits());
    let mut sys = HeteroSystem::new(variant.config());
    let pristine = pristine(sys.memory());
    sys.add_fus(bench.name(), 1);
    let req = if variant.uses_accelerator() {
        TaskRequest::accel(format!("{bench}#0"), bench.name())
    } else {
        TaskRequest::cpu(format!("{bench}#0"))
    }
    .rw_buffers(bench.buffers().iter().map(|b| b.size));
    let id = sys.allocate_task(&req).unwrap();
    for (obj, image) in bench.init(SEED).iter().enumerate() {
        sys.write_buffer(id, obj, 0, image).unwrap();
    }
    let outcome = if variant.uses_accelerator() {
        sys.run_accel_task(id, |eng| bench.kernel(eng))
    } else {
        sys.run_cpu_task(id, |eng| bench.kernel(eng))
    }
    .unwrap();
    assert_eq!(outcome.denial, None, "{bench} under {variant} was denied");
    let buffers = bench
        .buffers()
        .iter()
        .enumerate()
        .map(|(obj, b)| {
            let mut out = vec![0u8; b.size as usize];
            sys.read_buffer(id, obj, 0, &mut out).unwrap();
            out
        })
        .collect();
    Seen {
        result,
        pristine,
        buffers,
    }
}

/// A run abandoned mid-way, as one that errors out is: its buffers are
/// loaded, a capability is spilled into one of them and a tag bit is
/// forged over another, and the system is dropped without tearing the
/// task down.
fn abandoned_run(bench: Benchmark) {
    let mut sys = HeteroSystem::new(SystemVariant::CheriCpuCheriAccel.config());
    sys.add_fus(bench.name(), 1);
    let req = TaskRequest::accel(format!("{bench}#0"), bench.name())
        .rw_buffers(bench.buffers().iter().map(|b| b.size));
    let id = sys.allocate_task(&req).unwrap();
    for (obj, image) in bench.init(SEED).iter().enumerate() {
        sys.write_buffer(id, obj, 0, image).unwrap();
    }
    let layout = sys.cpu_layout(id).unwrap();
    let (first, last) = (layout.buffers[0], layout.buffers[layout.buffers.len() - 1]);
    let cap = Capability::root()
        .set_bounds(first.base, first.size)
        .unwrap();
    let mem = sys.memory_mut();
    mem.write_capability(first.base.next_multiple_of(16), cap.compress(), true)
        .unwrap();
    mem.set_tag_raw(last.base, true).unwrap();
    assert_eq!(mem.tag_count(), 2);
}

fn checked_cells() -> Vec<Seen> {
    CHECKED.iter().map(|&(b, v)| cell(b, v)).collect()
}

#[test]
fn cells_after_faulty_and_capability_cells_see_a_fresh_memory() {
    let fresh = std::thread::spawn(checked_cells).join().unwrap();
    assert!(
        fresh.iter().all(|s| s.pristine),
        "a new system's memory is dirty"
    );

    let reused = std::thread::spawn(|| {
        for spec in [
            "tag-flip:1.0",
            "garbled-dma:1.0",
            "tag-flip:0.5,garbled-dma:0.5",
        ] {
            let report = run_campaign(&CampaignConfig {
                tasks: 8,
                seed: SEED,
                spec: spec.parse().unwrap(),
                ..CampaignConfig::default()
            })
            .unwrap();
            assert!(
                report.injected_counts().values().sum::<u64>() > 0,
                "{spec}: no fault fired"
            );
        }
        cell(Benchmark::SpmvCrs, SystemVariant::CheriCpu);
        abandoned_run(Benchmark::SpmvCrs);
        checked_cells()
    })
    .join()
    .unwrap();
    assert_eq!(reused, fresh);
}
